"""Per-layer spans for the traced benchmark run, recorded from outside the program.

The tracer wraps the public functions the layers import from each other.  A
module that did ``from .lattices import closest_vectors`` holds its own
reference, so every ``periform`` module attribute bound to the original
function is rebound to the wrapper, and restored afterwards.  Spans are kept
in memory as [name, parent, start, end, count] and written out at the end;
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable

# (module, function, None or (count name, count drawn from (args, result))).
# The counts are the work each layer did, so ratios are taken where it happens.
LAYERS: tuple[tuple[str, str, tuple[str, Callable] | None], ...] = (
    ("lattices", "lll_reduce", None),
    ("lattices", "shortest_vectors", ("vectors", lambda args, res: len(res.vectors))),
    ("lattices", "closest_vectors", None),
    ("periodic", "generalized_min", ("reps", lambda args, res: len(res.reps))),
    ("periodic", "density", None),
    ("periodic", "gradient_p", None),
    ("linalg", "rank_span", ("rows", lambda args, res: len(args[0]))),
    ("simplex", "solve_lp", ("cells", lambda args, res: len(args[0]) * len(args[2]))),
    ("cones", "project_to_cone", None),
    ("certify", "certify", None),
    ("certify", "voronoi_domain", None),
    ("certify", "eutaxy_status", None),
    ("certify", "strong_eutaxy", None),
    ("certify", "improving_direction", None),
    ("certify", "uncertainty_space", None),
    ("improve", "improve", None),
    ("formats", "loads", None),
    ("formats", "dumps", None),
    ("catalog", "get", None),
    ("catalog", "sublattice_representation", None),
)


class Tracer:
    """Records spans around the wrapped layer functions while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, func, count in LAYERS:
            original = getattr(importlib.import_module(f"periform.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, count and count[1])
            for mod in _periform_modules():
                for attr in [a for a, v in vars(mod).items() if v is original]:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
            if count is not None:
                span[4] = count(args, result)
            return result

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s, self_s and the named count for every wrapped layer."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals, count_names = {}, {}
        for module, func, count in LAYERS:
            name = f"{module}.{func}"
            totals[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            if count is not None:
                count_names[name] = count[0]
                totals[name][count[0]] = 0
        for (name, _, start, end, count), inner in zip(self.spans, child_time):
            row = totals[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
            if name in count_names:
                row[count_names[name]] += count
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "count"],
                       "spans": self.spans}, fh)


def _periform_modules() -> list:
    return [mod for key, mod in list(sys.modules.items())
            if key == "periform" or key.startswith("periform.")]
