"""The package names and arguments that the benchmark in ``perfbench/`` relies on.

perfbench's tracer wraps every public function of every ``multires`` module
and names a span ``<defining module>.<function>``. Its expected-layer lists
(``child.py``), its span lookups (``layers.py``) and its argument probes
(``tracer.py``) name such functions, so renaming one, or one of the
arguments a probe reads, would otherwise show up only as a benchmark
failure. ``workloads.py`` also keeps a copy of the toy settings, which must
match ``configs/toy.cfg``. The files are read with ``ast``, not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import types
from pathlib import Path

from multires.config import load_config, parse_config, serialize_config

from helpers import TOY_CFG

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# SpanTree methods of perfbench/layers.py that take a span name
LOOKUPS = {"kid", "kids", "descendants", "named", "calls", "total_self", "total_dur"}


def _parse(name: str) -> ast.Module:
    path = PERFBENCH / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no module-level {name} assignment")


def _strings(node: ast.expr) -> set[str]:
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _child_layers() -> set[str]:
    tree = _parse("child.py")
    traced = ast.literal_eval(_assigned(tree, "TRACED_LAYERS"))
    recrop = ast.literal_eval(_assigned(tree, "RECROP_LAYERS"))
    return {name for names in traced.values() for name in names} | set(recrop)


def _probes() -> dict[str, str]:
    """Probed span name -> name of the probe function in tracer.py."""
    probes = _assigned(_parse("tracer.py"), "PROBES")
    assert isinstance(probes, ast.Dict)
    return {key.value: value.id for key, value in zip(probes.keys, probes.values)}


def _probe_arguments(probe: str) -> set[str]:
    """Argument names a probe reads as ``bound.arguments[...]`` or ``.get(...)``."""
    fn = next(
        n for n in _parse("tracer.py").body if isinstance(n, ast.FunctionDef) and n.name == probe
    )
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            names.add(node.slice.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            names.add(node.args[0].value)
    return names


class _SpanNames(ast.NodeVisitor):
    """Span names that layers.py passes to a SpanTree lookup or compares a span's name with.

    A lookup argument is a string, or a loop variable over a tuple of strings;
    a compared name is a variable assigned from ``tree.name(...)``.
    """

    def __init__(self) -> None:
        self.names: set[str] = set()
        self._loops: list[tuple[str, set[str]]] = []
        self._span_vars: set[str] = set()

    def visit_For(self, node: ast.For) -> None:
        if isinstance(node.target, ast.Name):
            self._loops.append((node.target.id, _strings(node.iter)))
            self.generic_visit(node)
            self._loops.pop()
        else:
            self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute) and value.func.attr == "name":
            self._span_vars.update(t.id for t in node.targets if isinstance(t, ast.Name))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and node.func.attr in LOOKUPS:
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    self.names.add(arg.value)
                elif isinstance(arg, ast.Name):
                    bound = [values for var, values in self._loops if var == arg.id]
                    self.names |= bound[-1] if bound else set()
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        if isinstance(node.left, ast.Name) and node.left.id in self._span_vars:
            self.names |= _strings(node)
        self.generic_visit(node)


def _layer_lookups() -> set[str]:
    visitor = _SpanNames()
    visitor.visit(_parse("layers.py"))
    return visitor.names


def test_named_functions_are_public_package_functions():
    layers = _layer_lookups()
    assert {"trainer.train", "model.model_forward", "backend.block_backward", "cache.read_cache"} <= layers
    named = _child_layers() | set(_probes()) | layers
    wrong = []
    for name in sorted(named):
        module_name, _, function = name.partition(".")
        module = importlib.import_module(f"multires.{module_name}")
        fn = getattr(module, function, None)
        if (
            function.startswith("_")
            or not isinstance(fn, types.FunctionType)
            or fn.__module__ != module.__name__
        ):
            wrong.append(name)
    assert wrong == []


def test_probed_functions_take_the_arguments_probes_read():
    probes = _probes()
    read = {name: _probe_arguments(probe) for name, probe in probes.items()}
    assert read == {
        "backend.conv2d_forward": {"x", "p", "stride"},
        "backend.conv2d_backward": {"x", "p", "stride"},
        "cache.write_cache": {"path"},
        "cache.read_cache": {"path"},
    }
    for name, arguments in read.items():
        module_name, _, function = name.partition(".")
        fn = getattr(importlib.import_module(f"multires.{module_name}"), function)
        assert arguments <= set(inspect.signature(fn).parameters), name


def _settings(config) -> dict[str, str]:
    """Config key -> its parsed value, written in `serialize_config`'s canonical form."""
    return dict(line.split("=", 1) for line in serialize_config(config).splitlines())


def test_toy_text_matches_the_shipped_toy_config():
    # workloads.py keeps its own copy of the toy settings; each key it sets
    # must parse to the value configs/toy.cfg gives it
    text = ast.literal_eval(_assigned(_parse("workloads.py"), "TOY_TEXT"))
    keys = [line.partition("=")[0].strip() for line in text.splitlines() if line.strip()]
    bench, shipped = _settings(parse_config(text)), _settings(load_config(TOY_CFG))
    assert keys
    assert {key: bench[key] for key in keys} == {key: shipped[key] for key in keys}
