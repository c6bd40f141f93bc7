"""Outside-in spans around the module-level functions of ``ptdyn``.

The package is not instrumented. :class:`Tracer` replaces each traced
function, in every ``ptdyn`` module namespace that binds it, by a wrapper
that records a span ``(name, start, end, parent)``; :meth:`Tracer.remove`
puts the originals back. Calls the package makes through a module attribute
(``linalg.operator_norm``) or a name imported into another module
(``cpt_norm`` in ``dynamics``) both reach the wrapper. Methods are not
wrapped, so their time counts toward the nearest traced caller.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("linalg", "frames", "models", "dynamics", "adiabatic", "config", "cli")

# Functions traced besides each module's ``__all__``: the stages of
# ``run_scenario`` that are not exported, and the RK4 loop.
EXTRA = {
    "cli": ("build_model", "_frame_and_symmetry", "_write_trajectory_csv",
            "_write_adiabatic_csv", "_atomic_write"),
    "dynamics": ("_rk4_run",),
}
# Input coercions called inside nearly every linalg function (over 100 per
# grid point); tracing them would double the tracing overhead, so their
# time counts toward the caller.
SKIP = {"linalg.as_operator", "linalg.as_state"}

ROOT = -1


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module("ptdyn")] + [
            importlib.import_module(f"ptdyn.{layer}") for layer in LAYERS
        ]
        self.names: list[str] = []
        self.spans: list = []
        self._stack = [ROOT]
        self._installed: list = []
        self._wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ptdyn.{layer}")
            for attr in tuple(getattr(mod, "__all__", ())) + EXTRA.get(layer, ()):
                fn = getattr(mod, attr)
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in SKIP):
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.spans.clear()
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in self._installed:
            setattr(mod, attr, value)
        self._installed.clear()

    def profile(self) -> dict:
        """Per traced function: calls, total seconds, self seconds (children excluded)."""
        n = len(self.names)
        calls, total, self_s = [0] * n, [0.0] * n, [0.0] * n
        spans = self.spans
        for name_id, start, end, parent in spans:
            dur = end - start
            calls[name_id] += 1
            total[name_id] += dur
            self_s[name_id] += dur
            if parent != ROOT:
                self_s[spans[parent][0]] -= dur
        return {
            self.names[i]: {"calls": calls[i], "s": total[i], "self_s": self_s[i]}
            for i in range(n) if calls[i]
        }

    def outermost_s(self, names) -> float:
        """Wall time covered by spans of ``names``, counting nested ones once."""
        ids = {i for i, name in enumerate(self.names) if name in names}
        spans = self.spans
        total = 0.0
        for name_id, start, end, parent in spans:
            if name_id not in ids:
                continue
            while parent != ROOT and spans[parent][0] not in ids:
                parent = spans[parent][3]
            if parent == ROOT:
                total += end - start
        return total
