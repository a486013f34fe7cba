"""
Span recorder for the traced run.

A span has a name, a start and an end (``time.perf_counter``), the index
of the span that encloses it, the id of the operation it belongs to, and
optional counts.  Spans stay in memory until ``dump`` writes them out at
the end of the run.  A span's self time is its duration minus the
durations of its direct children, which never overlap because the run
is single-threaded.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.missing: set[str] = set()  # spans whose public function is gone

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; the block may add to its counts."""
        rec = {
            "name": name,
            "op": self.op_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Attach a count to the innermost open span."""
        self.spans[self._stack[-1]]["counts"][name] = value

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(i)
        return kids

    def self_times(self) -> dict[str, float]:
        """Per span name: the median over operations of its summed self time."""
        kids = self._children()
        per_op: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            dur = s["end"] - s["start"]
            own = dur - sum(self.spans[k]["end"] - self.spans[k]["start"] for k in kids.get(i, ()))
            ops = per_op.setdefault(s["name"], {})
            ops[s["op"]] = ops.get(s["op"], 0.0) + own
        return {name: statistics.median(v.values()) for name, v in per_op.items()}

    def counts(self) -> dict[str, float]:
        """Per count name: the median over the spans that recorded it."""
        seen: dict[str, list] = {}
        for s in self.spans:
            for k, v in s["counts"].items():
                seen.setdefault(k, []).append(v)
        return {k: statistics.median(v) for k, v in seen.items()}

    def coverage(self, prefix: str) -> float | None:
        """Median share of each span named prefix* that its children cover."""
        kids = self._children()
        shares = []
        for i, s in enumerate(self.spans):
            if s["name"].startswith(prefix):
                dur = s["end"] - s["start"]
                covered = sum(self.spans[k]["end"] - self.spans[k]["start"] for k in kids.get(i, ()))
                shares.append(covered / dur)
        return statistics.median(shares) if shares else None

    def durations(self, prefix: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"].startswith(prefix)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")
