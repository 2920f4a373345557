"""Span tracing from outside the program.

The tracer wraps the public functions of each concord layer (the names in
each module's ``__all__`` plus ``ReportEnvelope.to_json``) and rebinds
every module attribute that referred to the original, so calls made
through ``from .x import y`` bindings are seen too. Each call records a
span (name, start, end, parent span, op id) in flat arrays; nothing is
written until ``save`` runs at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "montecarlo", "quadrature", "agreement", "measures", "inference", "report")
OP_SPAN = "op"  # the benchmark's own span around one operation


def _targets() -> list[tuple[str, Any, str, Callable]]:
    """(span name, owner, attribute, function) for every wrapped function."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"concord.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found.append((f"{layer}.{attr}", module, attr, fn))
    report = importlib.import_module("concord.report")
    found.append(("report.to_json", report.ReportEnvelope, "to_json", report.ReportEnvelope.to_json))
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.op_id = -1
        self._stack = [-1]
        self._op_name = self._intern(OP_SPAN)
        self._restore: list[tuple[Any, str, Any]] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def run_op(self, call: Callable, arg: Any) -> Any:
        """Run one benchmark operation under its root span, with the next op id."""
        self.op_id += 1
        idx = self._open(self._op_name)
        try:
            return call(arg)
        finally:
            self._close(idx)

    def install(self) -> None:
        concord_modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "concord" or name.startswith("concord."))
        ]
        for name, owner, attr, fn in _targets():
            wrapper = self.wrap(name, fn)
            self._rebind(owner, attr, wrapper)
            for module in concord_modules:
                for key, value in list(vars(module).items()):
                    if value is fn and (module, key) != (owner, attr):
                        self._rebind(module, key, wrapper)

    def _rebind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays, with inclusive and self durations in ns."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        duration = np.frombuffer(self.end, dtype=np.int64) - start
        # Calls are sequential in one thread, so children never overlap and
        # their coverage of the parent is the sum of their durations.
        covered = np.zeros(len(duration), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": parent,
            "duration_ns": duration,
            "self_ns": duration - covered,
        }

    def save(self, path: Path) -> None:
        """Write the raw spans; ``names[name_id]`` is a span's function."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names),
                **{
                    column: np.frombuffer(getattr(self, column), dtype=dtype)
                    for column, dtype in (
                        ("name_id", np.uint16), ("parent", np.int32), ("op", np.int32),
                        ("start", np.int64), ("end", np.int64),
                    )
                },
            )
