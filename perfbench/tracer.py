"""In-memory span tracer for the benchmark's traced pass.

The tracer replaces module attributes that ``tramfl.simulator`` and
``tramfl.cli`` look up at call time with thin wrappers. Each call records one
span ``(layer, start, end, parent span index, trial id)``. Spans stay in a
list until the run ends; :meth:`Tracer.layer_stats` folds them into per-layer
call counts, busy time and self time (busy time minus the time of the span's
direct children).
"""

from __future__ import annotations

import gzip
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.trial = -1
        self.absent: list[str] = []  # layers whose wrapped name no longer exists
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, layer: str, note=None, starts_trial=False) -> None:
        """Record a span for every call of ``module.attr``.

        ``note(args, result)`` runs after the span closes, for cheap counters.
        With ``starts_trial`` each call opens a new trial id.
        A missing attribute is remembered in ``absent`` instead of raising, so
        the report can name it.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(layer)
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if starts_trial:
                self.trial += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.trial)
            if note is not None:
                note(args, result)
            return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "busy_s", "self_s"}}`` over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return stats

    def write(self, path, header: str) -> None:
        """Write spans as gzipped TSV: layer, start_us, end_us, parent, trial."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(header + "\n")
            handle.write("layer\tstart_us\tend_us\tparent\ttrial\n")
            for layer, start, end, parent, trial in self.spans:
                handle.write(
                    f"{layer}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}"
                    f"\t{parent}\t{trial}\n"
                )
