"""Spans and counts around library functions, installed from outside the program.

The CLI binds library functions by name (``from .oracle import
forward_filter``), so patching only the defining module would miss most
calls. ``Tracer.install`` therefore rebinds every attribute of every loaded
module of the package that is the same function object, and restores all of
them on exit.

A span's self time is its duration minus the durations of the spans it
directly encloses. Calls run on one thread, so child spans never overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: Counter = field(default_factory=Counter)
    nested: Counter = field(default_factory=Counter)  # "<key>.<count>" of spans inside this one


@dataclass
class _Frame:
    child_s: float = 0.0
    nested: Counter = field(default_factory=Counter)


def resolve(target: str):
    """``module:a.b.c`` -> (owner, name) such that the target is ``owner.<name>``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = owner[part] if isinstance(owner, dict) else getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[_Frame] = []

    def span(self, key: str, fn, work=None):
        """Wrap ``fn`` in a span; ``work(bound_args, result)`` gives its work counts."""
        stat = self.stats.setdefault(key, Stat())
        sig = inspect.signature(fn) if work else None
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame.child_s
                stat.nested.update(frame.nested)
                if stack:
                    stack[-1].child_s += dur
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = work(bound.arguments, result)
                stat.work.update(counts)
                for parent in stack:
                    parent.nested.update({f"{key}.{k}": v for k, v in counts.items()})
            return result

        return traced

    def counter(self, key: str, fn):
        """Wrap ``fn`` so that it is counted but not timed."""
        stat = self.stats.setdefault(key, Stat())

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def install(self, layers, package: str = "dualfilter"):
        """Patch every binding of each layer's function for the duration of the block."""
        undo = []
        try:
            for layer in layers:
                owner, name = resolve(layer.target)
                raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapped = self.span(layer.key, fn, layer.work) if layer.timed else self.counter(layer.key, fn)
                new = classmethod(wrapped) if isinstance(raw, classmethod) else wrapped
                bindings = [(owner, name)]
                if inspect.ismodule(owner):
                    bindings = [
                        (mod, attr)
                        for mod in package_modules(package)
                        for attr, val in list(vars(mod).items())
                        if val is raw
                    ]
                for mod, attr in bindings:
                    undo.append((mod, attr, raw))
                    setattr(mod, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)


def package_modules(package: str) -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]
