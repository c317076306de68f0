"""Source hygiene: every name imported with ``from ... import`` is used.

No linter ships with the project, so this scan of ``src/`` and ``tests/``
keeps the imports clean.  A name counts as used when it appears as a
bare name (which covers the base of an attribute) or inside a string
annotation.
"""

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IGNORED = {"annotations"}  # from __future__ import annotations


def _python_files():
    for top in ("src", "tests"):
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
