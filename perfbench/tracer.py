"""Outside-in span tracer for the benchmark.

The tracer replaces public callables of the library (module functions and
class methods) with wrappers that record one span per call: name, start,
end and the span that was open when the call began. Spans live in compact
in-memory arrays until the caller aggregates or saves them; nothing inside
`src/` knows it is being traced. `restore()` puts every original back.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock  # integer nanoseconds
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(self._clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self._clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace `owner.attr` (a module or class attribute) by a traced wrapper."""
        original = owner.__dict__[attr]
        nid = self._intern(name)
        # the wrapper inlines _open/_close: it runs millions of times per traced run
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack,
        )
        clock = self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the caller's own code; yields its index."""
        i = self._open(self._intern(name))
        try:
            yield i
        finally:
            self._close(i)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Recorded spans as numpy columns, plus duration and self time in ns.

        A span's self time is its duration minus the durations of its direct
        children; children never overlap one another, so over a closed tree
        the self times sum exactly to the root durations.
        """
        if self._stack:
            raise RuntimeError("spans are still open")
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        duration = end - start
        child = np.zeros(len(start), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "name_id": name_id,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - child,
        }

    def summary(self, groups: dict[str, tuple[str, ...]] | None = None) -> dict[str, dict]:
        """Per span name (and per named group of span names): calls, inclusive
        and self time in ns.

        Inclusive time counts only the outermost span of a name or group, so a
        call nested inside another call of the same name or group is not
        counted twice.
        """
        a = self.arrays()
        parent_name = np.where(a["parent"] >= 0, a["name_id"][a["parent"]], -1)
        sets = {name: (name,) for name in self.names}
        sets.update(groups or {})
        out = {}
        for label, members in sets.items():
            ids = [self._name_ids[m] for m in members if m in self._name_ids]
            mine = np.isin(a["name_id"], ids)
            outer = mine & ~np.isin(parent_name, ids)
            out[label] = {
                "calls": int(np.count_nonzero(mine)),
                "incl_ns": int(a["duration"][outer].sum()),
                "self_ns": int(a["self"][mine].sum()),
            }
        return out

    def save(self, path) -> None:
        """Write the recorded spans as an .npz file with a `names` table."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"].astype(np.uint16),
            parent=a["parent"].astype(np.int32),
            start_ns=a["start"],
            end_ns=a["end"],
        )
