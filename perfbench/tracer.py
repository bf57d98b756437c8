"""Per-function tracing of graspforge from outside the package.

`Tracer` replaces public graspforge functions with timing wrappers.  A
function imported by name into several modules (``from .contact import
detect_contacts``) is bound separately in each of them, so the wrapper is
installed on every graspforge module attribute that holds the original, and
each original binding is put back on exit.  Nothing under the package's
source tree is edited.

Each wrapped call records its inclusive time and its self time: the
inclusive time minus the inclusive time of wrapped calls nested inside it.
An optional observer sees each call's arguments and result after the clock
has stopped, so counters cost the measured functions nothing.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

_MARK = "__perfbench_original__"


def _graspforge_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graspforge" or name.startswith("graspforge."))]


def installed_wrappers() -> list[str]:
    """Names of every graspforge module attribute that holds a tracer wrapper."""
    return [f"{m.__name__}.{attr}" for m in _graspforge_modules()
            for attr, value in vars(m).items() if hasattr(value, _MARK)]


def assert_untraced() -> None:
    """Raise if any tracer wrapper is still bound; timed runs call this first."""
    found = installed_wrappers()
    if found:
        raise RuntimeError(f"tracer wrappers still installed: {found}")


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Context manager that traces `targets`, a list of (module, function) names.

    `observers` maps "module.function" to a callable (args, kwargs, result)
    run after each call of that function.  The tracer may be entered again
    after it exits; `stats` accumulates over every entry.
    """

    def __init__(self, targets, observers=None):
        for module, name in targets:
            if name.startswith("_"):
                raise ValueError(f"only public names are traced, got {module}.{name}")
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.stats = {f"{m}.{n}": CallStats() for m, n in self.targets}
        self._stack: list[float] = []  # child time accumulated per open call
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stats = self.stats[key]
        observer = self.observers.get(key)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observer is not None:
                observer(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def __enter__(self):
        assert_untraced()
        modules = _graspforge_modules()
        for module, name in self.targets:
            fn = getattr(sys.modules[f"graspforge.{module}"], name)
            wrapper = self._wrap(f"{module}.{name}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._bindings.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, fn in reversed(self._bindings):
            setattr(m, attr, fn)
        self._bindings.clear()
        assert_untraced()
        return False
