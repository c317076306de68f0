"""Source hygiene: no unused imports, parameters or public definitions.

No linter ships with the project, so three ``ast`` scans keep the code
clean.  Every name imported with ``from ... import`` in ``src/`` or
``tests/`` is used: it appears as a bare name (which covers the base of
an attribute) or inside a string annotation.  Every public function,
method or class defined in ``src/`` is referenced somewhere in ``src/``,
``tests/`` or ``perfbench/``: as a name, an attribute, or a string of
dotted names (``perfbench/tracing.py`` names the methods it wraps so).
Every parameter of a function or lambda in ``src/`` is read in its body,
except ``self``, ``cls`` and names that start with ``_``.
"""

import ast
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = {"annotations"}  # from __future__ import annotations


def _python_files(tops=("src", "tests")):
    for top in tops:
        for dirpath, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def unused_from_imports(source: str) -> list[str]:
    """Names bound by ``from ... import`` that the module never uses."""
    tree = ast.parse(source)
    imported = []
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names
                         if a.name != "*" and a.name not in IGNORED]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    # string annotations such as -> "GammaModule"
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted({name for name in imported if name not in used})


def test_scan_flags_an_unused_name():
    src = ("from a import b, c as d, annotations\nfrom e import f, g\n"
           "def h(x: 'f') -> None:\n    print(b.y, 'g')\n")
    assert unused_from_imports(src) == ["d", "g"]


@pytest.mark.parametrize("path", sorted(_python_files()))
def test_no_unused_from_imports(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_from_imports(fh.read()) == []


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter its body never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg]
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        out += [f"{name}.{p}" for p in params
                if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return out


def test_scan_flags_an_unused_parameter():
    src = ("def f(self, a, b, _c, *args, d=1, **kw):\n"
           "    def g():\n        return a\n    return g, kw\n"
           "h = lambda x, y: x\n")
    assert unused_parameters(src) == ["f.b", "f.args", "f.d", "lambda.y"]


@pytest.mark.parametrize("path", sorted(_python_files(("src",))))
def test_no_unused_parameters(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_parameters(fh.read()) == []


def referenced_names(source: str) -> set[str]:
    """Names, attributes and the parts of dotted-name strings in source."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            out |= set(node.value.split("."))
    return out


def public_definitions(source: str) -> list[str]:
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_dead_scan_flags_an_unreferenced_definition():
    src = ("class A:\n    def used(self): pass\n    def dead(self): pass\n"
           "    def _private(self): pass\n"
           "def f(): return A().used()\nHOOKS = ('mod.f',)\n")
    assert [n for n in public_definitions(src) if n not in referenced_names(src)] == ["dead"]


def test_no_unreferenced_public_definitions():
    sources = {}
    for path in _python_files(("src", "tests", "perfbench")):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            sources[path] = fh.read()
    referenced = set().union(*map(referenced_names, sources.values()))
    dead = [f"{path}: {name}" for path, src in sources.items() if path.startswith("src")
            for name in public_definitions(src) if name not in referenced]
    assert dead == []
