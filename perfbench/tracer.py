"""Span tracer that wraps the public functions of every `multires` module.

Modules such as `pipeline`, `trainer`, `model` and `backend` import names
like `read_wav`, `model_forward` or `excite_forward` directly, so a wrapper
placed only on the defining module would never see their calls.  The tracer
therefore walks every loaded `multires.*` module and replaces each attribute
that is a public function defined in the package, wherever it was bound,
with one shared wrapper per original function.  `uninstall` puts every
original object back and `restored` confirms that it did.

A span is `[name, start, end, parent, probe]`: `name` is
`<defining module>.<function>`, times come from `time.perf_counter`,
`parent` is the index of the enclosing span (-1 at top level) and `probe`
holds the shapes or file sizes that a probe function read from the call's
arguments after it returned, for the work counts computed in `layers.py`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from pathlib import Path

PACKAGE = "multires"
SKIP_MODULES = {f"{PACKAGE}.__main__"}


def _conv_shapes(bound: inspect.BoundArguments) -> tuple:
    x, p = bound.arguments["x"], bound.arguments["p"]
    stride = bound.arguments.get("stride", 1)
    return tuple(x.shape), tuple(p.weight.shape), int(stride), int(x.dtype.itemsize)


def _file_bytes(bound: inspect.BoundArguments) -> tuple:
    return (Path(bound.arguments["path"]).stat().st_size,)


# Functions whose arguments feed the computed work counts.
PROBES = {
    "backend.conv2d_forward": _conv_shapes,
    "backend.conv2d_backward": _conv_shapes,
    "cache.write_cache": _file_bytes,
    "cache.read_cache": _file_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, types.FunctionType]] = []

    def _wrap(self, fn: types.FunctionType, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = probe(bound)
            return result

        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, object] = {}
        for mod_name, module in sorted(sys.modules.items()):
            if not mod_name.startswith(PACKAGE + ".") or mod_name in SKIP_MODULES:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith(PACKAGE + "."):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in self._patched:
            setattr(module, attr, original)

    def restored(self) -> list[str]:
        """Names of patched attributes that are not the original object again."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self._patched
            if getattr(module, attr) is not original
        ]

    @property
    def wrapped_count(self) -> int:
        return len(self._patched)
