"""Spans around qtcatalan's public functions, recorded from outside the package.

install() rebinds each traced function at every place a qtcatalan module
binds it (rankwords.omega is also bijection.omega, rankwords.mark_from_path
is also stats.mark_from_path), so calls between layers become child spans.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

from registry import FUNCTIONS

# A span: (id, name, start, end, parent id or None, request id, raised, is_call).
# A generator records one span per resumption; only the first counts a call.


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = None
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, name, start, parent, raised, is_call) -> None:
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, name, start, end, parent, self.request, raised, is_call))

    def wrap(self, name: str, func):
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(name, func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            raised = True
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                raised = False
                return result
            finally:
                self._close(sid, name, start, parent, raised, True)

        return traced

    def _wrap_generator(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            gen = func(*args, **kwargs)
            first = True
            while True:
                sid, parent = self._open()
                raised = True
                start = time.perf_counter()
                try:
                    item = next(gen)
                    raised = False
                except StopIteration:
                    raised = False
                    return
                finally:
                    self._close(sid, name, start, parent, raised, first)
                    first = False
                yield item

        return traced

    def _rebind(self, modules, original, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced function, method and verify check; see uninstall."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "qtcatalan" or name.startswith("qtcatalan.")
        ]
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for module, function in FUNCTIONS:
            mod = by_name.get(module)
            if mod is None:
                continue
            attr = f"cmd_{function}" if module == "cli" and function != "main" else function
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None)
            if inspect.isclass(owner):
                method = method or "__init__"
                original = owner.__dict__.get(method)
                if callable(original):
                    self._restore.append((owner, method, original))
                    setattr(owner, method, self.wrap(f"{module}.{function}", original))
            elif callable(owner):
                self._rebind(modules, owner, self.wrap(f"{module}.{function}", owner))
        verify = by_name.get("verify")
        checks = getattr(verify, "CHECKS", None)
        if checks:
            wrapped = []
            for name, func, scope in checks:
                traced = self.wrap(f"verify.{name}", func)
                self._rebind(modules, func, traced)
                wrapped.append((name, traced, scope))
            self._restore.append((verify, "CHECKS", checks))
            verify.CHECKS = wrapped

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for sid, name, start, end, parent, request, raised, is_call in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, "raised": raised,
                    "call": is_call,
                }))
                out.write("\n")


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def layer_table(spans) -> dict[str, dict[str, float]]:
    """name -> {calls, self_s, errors}; self time excludes child spans."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "errors": 0}
    )
    for sid, name, start, end, _parent, _request, raised, is_call in spans:
        row = table[name]
        row["self_s"] += end - start - covered(children.get(sid, ()), start, end)
        row["calls"] += is_call
        row["errors"] += raised
    return dict(table)
