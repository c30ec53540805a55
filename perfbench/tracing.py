"""In-memory spans recorded around the benchmark's calls into the library.

A span has a name, start and end (perf_counter_ns), the span that was open
when it began (its parent), a run id and an item count.  Spans are kept in
compact arrays and written out once, at the end of the run.  A span's self
time is its duration minus the durations of its direct children; children
never overlap because one thread records them.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional


_END = object()


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run_of = array("l")
        self.count = array("q")
        self._stack = [-1]
        self._run = -1

    @contextlib.contextmanager
    def run(self, label: str) -> Iterator[None]:
        """Spans opened inside belong to the run `label`."""
        outer = self._run
        self.runs.append(label)
        self._run = len(self.runs) - 1
        try:
            yield
        finally:
            self._run = outer

    def open(self, name: str, count: int = 1) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run_of.append(self._run)
        self.count.append(count)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1) -> Iterator[None]:
        i = self.open(name, count)
        try:
            yield
        finally:
            self.close(i)

    def iter(self, name: str, items: Iterable,
             observe: Optional[Callable] = None) -> Iterator:
        """Yield from `items`, one span per step of the underlying iterator.

        `observe`, when given, sees each item inside a `bench.observe` span,
        so its cost is excluded from the consumer's self time.
        """
        it = iter(items)
        while True:
            i = self.open(name)
            try:
                item = next(it, _END)
            finally:
                self.close(i)
            if item is _END:
                return
            if observe is not None:
                j = self.open("bench.observe")
                observe(item)
                self.close(j)
            yield item

    def self_times(self) -> dict[str, dict[str, dict]]:
        """Per run label and span name: total self ns, total ns, items, spans."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, dict]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            per_run = out.setdefault(self.runs[self.run_of[i]], {})
            agg = per_run.setdefault(self.names[self.name[i]],
                                     {"self_ns": 0, "total_ns": 0, "items": 0, "spans": 0})
            agg["self_ns"] += dur - child_ns[i]
            agg["total_ns"] += dur
            agg["items"] += self.count[i]
            agg["spans"] += 1
        return out

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, times in ns relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0
        names, runs = self.names, self.runs
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fp:
            fp.write("id,name,start_ns,end_ns,parent,run,count\n")
            for i in range(len(self.start)):
                fp.write(f"{i},{names[self.name[i]]},{self.start[i] - t0},"
                         f"{self.end[i] - t0},{self.parent[i]},"
                         f"{runs[self.run_of[i]]},{self.count[i]}\n")


class NullTracer:
    """The same interface, recording nothing: the untraced baseline."""

    @contextlib.contextmanager
    def run(self, label: str) -> Iterator[None]:
        yield

    def open(self, name: str, count: int = 1) -> int:
        return 0

    def close(self, i: int) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str, count: int = 1) -> Iterator[None]:
        yield

    def iter(self, name: str, items: Iterable, observe: Optional[Callable] = None) -> Iterable:
        return items
