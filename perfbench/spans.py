"""Spans and counters around the package's public functions, from outside.

The traced run replaces each layer function with a wrapper at the place
the package looks it up (a module attribute), so the package code itself
is unchanged. Each wrapper records one span per call: name, start, end,
the enclosing span and the frame it belongs to, plus optional counters
taken from the call's arguments and result. Counter hooks run after the
span has ended, so they cost the traced run time but never add to a
layer's own time.

`uninstall` restores every original function; `check_called` fails if a
wrapped function that the workload is expected to reach was never called,
so a refactor that drops or renames a layer cannot go unnoticed.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


# Spans use the clock of the end-to-end timings: the process's CPU time,
# which on the benchmark's single thread is time on the core.
clock = time.process_time


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, frame]
        self.stack: list[int] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)  # (name, frame) -> value
        self.calls: dict[str, int] = defaultdict(int)  # wrapper key -> call count
        self.frame = -1
        self.layer_info: dict[str, dict] = {}  # conv layer -> dtype and shapes of its last call
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counts[(name, self.frame)] += value

    def wrap(self, owner, attr: str, name, hook=None) -> None:
        """Replace owner.attr by a recording wrapper.

        name is the span name, or a callable of the call arguments that
        returns it. hook(tracer, args, kwargs, result) records counters.
        """
        original = getattr(owner, attr)
        key = f"{owner.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([span_name, clock(), None, parent, self.frame])
            self.stack.append(idx)
            self.calls[key] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                self.spans[idx][2] = clock()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def count_calls(self, owner, attr: str, name: str, inside: str) -> None:
        """Count calls made directly under a span called inside, with no span of their own.

        For functions called so often that a span per call would distort
        the enclosing layer's time.
        """
        original = getattr(owner, attr)
        key = f"{owner.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            if self.stack and self.spans[self.stack[-1]][0] == inside:
                self.counts[(name, self.frame)] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def unwind(self, depth: int) -> None:
        """Close spans left open by an exception raised inside a wrapper."""
        now = clock()
        for idx in self.stack[depth:]:
            if self.spans[idx][2] is None:
                self.spans[idx][2] = now
        del self.stack[depth:]

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def check_called(self, expected: list[str]) -> None:
        missing = [key for key in expected if self.calls.get(key, 0) == 0]
        if missing:
            raise TraceError(f"wrapped functions never called: {', '.join(missing)}")
        unexpected = [key for key, n in self.calls.items() if n and key not in expected]
        if unexpected:
            raise TraceError(f"functions outside the workload's layers were called: {', '.join(unexpected)}")

    # -- per-frame aggregation --------------------------------------------

    def per_frame_ms(self, name: str) -> dict[int, float]:
        """Summed time of the spans called name, per frame."""
        out: dict[int, float] = defaultdict(float)
        for span_name, start, end, _, frame in self.spans:
            if span_name == name:
                out[frame] += (end - start) * 1000.0
        return out

    def per_frame_calls(self, name: str) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for span_name, _, _, _, frame in self.spans:
            if span_name == name:
                out[frame] += 1
        return out

    def per_frame_count(self, name: str) -> dict[int, float]:
        return {frame: v for (n, frame), v in self.counts.items() if n == name}

    def dump(self, path) -> None:
        """Write every span as one JSON line, parents by index."""
        with open(path, "w") as f:
            for idx, (name, start, end, parent, frame) in enumerate(self.spans):
                f.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                    "parent": parent, "frame": frame}) + "\n")


def median_over(frames: list[int], by_frame: dict[int, float]) -> float:
    return statistics.median(by_frame.get(f, 0.0) for f in frames) if frames else 0.0
