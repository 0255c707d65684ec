"""In-memory span tracer around the public functions of the qlhv modules.

qlhv resolves calls through module globals, so replacing a module attribute
with a wrapper also records the calls a module makes into itself.  A function
that another module imported by name (``from .quaternions import q8_product``)
is replaced in every qlhv namespace that binds it.  ``lru_cache`` functions
are wrapped from outside, so their caches keep working.

A span is ``(name_id, start, end, parent_index, run_id, failed)``; spans stay
in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("cli", "chsh", "oracle", "qubit", "ghz", "quaternions")


def _public_functions(module):
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType) or hasattr(value, "cache_info"):
            yield attr, value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.run_id, failed)

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every public function of the qlhv layer modules imported so far."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "qlhv" or n.startswith("qlhv.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qlhv.{layer}")
            if module is None:
                continue
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def absorb(self, names, spans, run_id) -> None:
        """Append spans recorded by another process under this tracer's ids."""
        remap = [self._name_id(n) for n in names]
        offset = len(self.spans)
        for name_id, start, end, parent, _, failed in spans:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append((remap[name_id], start, end, parent, run_id, failed))

    def totals(self) -> dict:
        """Per run id: ``{name: [calls, self_s, errors, total_s]}`` plus the count of
        direct calls from one traced function to another under the key
        ``(caller, callee)``.  Self time is a span's duration minus the time
        its direct children cover."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for index, (name_id, start, end, parent, run_id, failed) in enumerate(spans):
            run = out.setdefault(run_id, {})
            record = run.setdefault(names[name_id], [0, 0.0, 0, 0.0])
            record[0] += 1
            record[1] += (end - start) - child[index]
            record[2] += int(failed)
            record[3] += end - start
            if parent >= 0:
                edge = (names[spans[parent][0]], names[name_id])
                run[edge] = run.get(edge, 0) + 1
        return out
