"""Layer timers installed from outside the program.

A `Tracer` replaces chosen gridsynth functions by timing wrappers. Because
modules import each other's functions by name (`from gridsynth.grammar import
sample_program`), a function is patched in every loaded gridsynth module that
holds it, and methods are patched on their class. `uninstall` puts every
original back.

Each probe records its call count, its total time and the part of that time
spent inside other probes, so a layer's self time is its total minus its
children. A probe that is re-entered (a recursive function whose recursion
goes through the patched module global, like `library.rewrite`) times only the
outermost call.
"""
from __future__ import annotations

import sys
import time


class Probe:
    __slots__ = ("name", "calls", "total", "child", "active", "on_result")

    def __init__(self, name, on_result=None):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.active = 0
        self.on_result = on_result

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    def __init__(self):
        self.probes: dict[str, Probe] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def probe(self, name: str) -> Probe:
        if name not in self.probes:
            self.probes[name] = Probe(name)
        return self.probes[name]

    def _wrap(self, fn, probe: Probe):
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if probe.active:
                return fn(*args, **kwargs)
            probe.active += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                probe.active -= 1
                probe.calls += 1
                probe.total += dt
                probe.child += frame[0]
                if stack:
                    stack[-1][0] += dt
            if probe.on_result is not None:
                probe.on_result(args, kwargs, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(
        self, module: str, attr: str, name: str, on_result=None, only=False, skip=()
    ) -> Probe:
        """Time `module.attr` wherever a gridsynth module imported it, or in
        `module` alone when `only` is set; modules named in `skip` keep the
        original (a kernel backend calling its own `execute`, say)."""
        original = getattr(sys.modules[module], attr)
        probe = self.probe(name)
        probe.on_result = on_result
        wrapper = self._wrap(original, probe)
        if only:
            self._set(sys.modules[module], attr, wrapper)
            return probe
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name in skip or mod_name.split(".")[0] != "gridsynth":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
        return probe

    def method(self, cls, attr: str, name: str, on_result=None) -> Probe:
        """Time `cls.attr` for every instance; several classes may share a probe."""
        probe = self.probe(name)
        if on_result is not None:
            probe.on_result = on_result
        self._set(cls, attr, self._wrap(vars(cls)[attr], probe))
        return probe

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def seconds(self, name: str) -> float:
        p = self.probes.get(name)
        return p.total if p else 0.0

    def calls(self, name: str) -> int:
        p = self.probes.get(name)
        return p.calls if p else 0


class Capture:
    """Keeps references to selected stage outputs for the checks.

    The hooks wrap functions that run once per curriculum iteration, so the
    capture costs nothing measurable.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def hook(self, module: str, attr: str, after) -> None:
        mod = sys.modules[module]
        original = getattr(mod, attr)

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, kwargs, result)
            return result

        hooked.__wrapped__ = original
        self._undo.append((mod, attr, original))
        setattr(mod, attr, hooked)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)
