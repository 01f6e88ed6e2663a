"""Per-layer call counts and inclusive seconds, recorded from outside.

Tracer.install() replaces every public function of the traced modules at
each name a caller looks it up by: `pipeline.predict_score` (imported by
name) and `ranker.predict_score` (called inside the ranker) are separate
bindings of one function, and both are wrapped and counted together.
`autodiff.Tape.backward` is wrapped on the class. Chamfer calls are
bucketed by set size. The program's files are not touched; uninstall()
puts every original binding back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "micas"
LAYERS = ("geometry", "autodiff", "sampler", "surrogate", "ranker", "tasks", "pipeline")
SMALL_SET = 64  # a Chamfer call is "small" when both sets have at most this many points


def _set_size(x) -> int:
    return len(getattr(x, "points", x))


def chamfer_bucket(a, b) -> str:
    small = _set_size(a) <= SMALL_SET and _set_size(b) <= SMALL_SET
    return "geometry.chamfer_small" if small else "geometry.chamfer_large"


class Stats:
    """Calls, inclusive seconds and extra counters for one phase of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counters = defaultdict(int)

    def add(self, other: "Stats") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.seconds, other.seconds),
                             (self.counters, other.counters)):
            for key, value in theirs.items():
                mine[key] += value


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, key: str, started: float) -> None:
        self.stats.calls[key] += 1
        self.stats.seconds[key] += time.perf_counter() - started

    def _wrap(self, fn, key: str):
        record = self._record
        clock = time.perf_counter
        if key == "geometry.chamfer_nearest":

            @functools.wraps(fn)
            def wrapper(a, b, *args, **kwargs):
                started = clock()
                try:
                    return fn(a, b, *args, **kwargs)
                finally:
                    record(chamfer_bucket(a, b), started)
                    record(key, started)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record(key, started)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{layer}.{name}"
        wrappers = {fn: self._wrap(fn, key) for fn, key in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        tape = modules["autodiff"].Tape
        backward = tape.backward

        @functools.wraps(backward)
        def traced_backward(tape_self, *args, **kwargs):
            self.stats.counters["autodiff.backward_nodes"] += len(tape_self.nodes)
            started = time.perf_counter()
            try:
                return backward(tape_self, *args, **kwargs)
            finally:
                self._record("autodiff.backward", started)

        self._patches.append((tape, "backward", backward))
        tape.backward = traced_backward

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def phase(self) -> Stats:
        """Start recording into a fresh Stats and return it."""
        self.stats = Stats()
        return self.stats


def format_table(stats: Stats, divisor: int, title: str) -> str:
    """Human-readable table of every wrapped binding, for standard error."""
    lines = [f"-- {title} (mean over {divisor}) --"]
    for key in sorted(stats.calls, key=lambda k: -stats.seconds[k]):
        lines.append(f"{key:42s} {stats.calls[key] / divisor:12.1f} calls {stats.seconds[key] / divisor:10.4f} s")
    return "\n".join(lines)
