"""Call spans for the traced benchmark run.

A span is one call into a public function of the package: its name,
start, end and the span that was open when it began.  Spans are kept in
memory and written out when the run ends.  Wrappers are installed by
replacing the function in the namespace that makes the call (``sim``
imports ``beam_sweep``, ``solve`` and the rest by name, so they are
patched there), which keeps the package itself untouched.

A span's self time is its duration minus the durations of its direct
children; calls are nested on one thread, so children never overlap.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

Observe = Callable[[tuple, Any, BaseException | None], None]


class Patches:
    """Attributes replaced on modules, classes or namespaces, undone by restore()."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Observe | None = None) -> Callable:
        """fn, recording a span per call; observe(args, result, error) runs after it."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(idx)
            self.starts.append(clock())
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.ends[idx] = clock()
                self._open.pop()
                if observe is not None:
                    observe(args, result, error)

        return traced

    def patch(self, owner: Any, attr: str, name: str, observe: Observe | None = None) -> None:
        """Replace owner.attr (a module, class or namespace) with its traced form."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and total self time, seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self_times = list(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                self_times[parent] -= durations[idx]
        out: dict[str, dict[str, float]] = {}
        for name, dur, own, parent in zip(self.names, durations, self_times, self.parents):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "root_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += own
            if parent < 0:
                row["root_s"] += dur
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV: index, name, start and end (seconds), parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["index,name,start_s,end_s,parent"]
        for idx, (name, start, end, parent) in enumerate(
            zip(self.names, self.starts, self.ends, self.parents)
        ):
            lines.append(f"{idx},{name},{start - t0!r},{end - t0!r},{parent}")
        path.write_text("\n".join(lines) + "\n")


class CountingRng:
    """A random generator proxy that counts ``uniform`` calls.

    Every other attribute passes through to the wrapped generator, so
    the draws, and therefore the scenes, are those of the bare generator.
    """

    def __init__(self, rng: Any) -> None:
        self._rng = rng
        self.uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._rng, name)
