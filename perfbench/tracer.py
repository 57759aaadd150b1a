"""Outside-in layer tracer: times mutreach functions by wrapping them.

The library imports its helpers with ``from .x import f``, so one
function can be bound under the same name in several modules.  A layer
is wrapped at every binding its callers use, or only at the bindings of
the modules named in ``callers``.  Generator functions are timed per
``next()``.  Self time is a span's duration minus the spans it caused.

A layer whose function no longer exists is reported as absent: its
metrics are ``None``, never zero calls.  ``Tracer.uninstall`` puts every
original binding back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "mutreach"


@dataclass
class LayerStats:
    calls: int = 0
    yields: int = 0
    s: float = 0.0  # inclusive time of outermost calls
    self_s: float = 0.0
    depth: int = 0  # active calls, so recursion is not counted twice
    counters: dict = field(default_factory=dict)

    def bump(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount


# An observer sees (stats, args, result, exception, seconds) after each call.
Observer = Callable[[LayerStats, tuple, object, BaseException | None, float], None]


@dataclass(frozen=True)
class Layer:
    name: str  # metric prefix, e.g. "ratlp.max_positive_support"
    module: str  # defining module, e.g. "mutreach.ratlp"
    attr: str  # attribute path in that module, e.g. "BoundedStateSpace.__init__"
    callers: tuple[str, ...] | None = None  # patch only these modules' bindings
    observe: Observer | None = None


class Tracer:
    """Installs timing wrappers for a list of layers and collects spans."""

    def __init__(self, layers: list[Layer], clock: Callable[[], float] = time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.stats: dict[str, LayerStats | None] = {}
        self._stack: list[list] = []  # [stats, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # --- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            owner, leaf = _resolve_owner(layer)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or not callable(original):
                self.stats.setdefault(layer.name, None)
                continue
            st = self.stats.get(layer.name) or LayerStats()
            self.stats[layer.name] = st
            wrapper = self._wrap(original, st, layer.observe)
            if isinstance(owner, type):
                self._patch(owner, leaf, original, wrapper)
                continue
            for mod in _package_modules():
                if layer.callers is not None and mod.__name__ not in layer.callers:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name, original, wrapper) -> None:
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    # --- spans ---------------------------------------------------------------

    def _enter(self, st: LayerStats) -> list:
        frame = [st, 0.0]
        self._stack.append(frame)
        st.depth += 1
        return frame

    def _leave(self, frame: list, seconds: float) -> None:
        st = frame[0]
        self._stack.pop()
        st.depth -= 1
        if st.depth == 0:
            st.s += seconds
        st.self_s += seconds - frame[1]
        if self._stack:
            self._stack[-1][1] += seconds

    def _wrap(self, fn, st: LayerStats, observe: Observer | None):
        tracer = self
        clock = self.clock

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(st)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._leave(frame, clock() - t0)
                        st.yields += 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            frame = tracer._enter(st)
            t0 = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                seconds = clock() - t0
                tracer._leave(frame, seconds)
                if observe is not None:
                    observe(st, args, result, exc, seconds)

        return wrapper


def _resolve_owner(layer: Layer):
    """(object holding the last attribute, last attribute name)."""
    mod = sys.modules.get(layer.module)
    if mod is None:
        return None, None
    *path, leaf = layer.attr.split(".")
    owner = mod
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, leaf


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
