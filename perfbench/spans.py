"""In-memory spans around the benchmark's own calls into the library.

Each library call made through a wrapped layer table becomes one span
``(id, name, start, end, parent)``; ``parent`` is the id of the operation
span that caused it.  Library spans have no children of their own here,
so a span's self time is its duration.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, "int | None"]] = []
        self._next_id = 0
        self._parent: "int | None" = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id, start = self._new_id(), perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((span_id, name, start, perf_counter(), self._parent))

        return traced

    def begin_op(self) -> int:
        """Open an operation span; library spans until ``end_op`` are its children."""
        self._parent = self._new_id()
        return self._parent

    def end_op(self, span_id: int, label: str, start: float, end: float) -> None:
        self.spans.append((span_id, label, start, end, None))
        self._parent = None

    def busy_seconds(self) -> dict[str, float]:
        """Total time per library call name (operation spans excluded)."""
        totals: dict[str, float] = defaultdict(float)
        for _, name, start, end, parent in self.spans:
            if parent is not None:
                totals[name] += end - start
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start", "end", "parent"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
