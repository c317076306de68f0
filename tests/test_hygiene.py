"""Source hygiene: no unused imports, parameters or public definitions.

No linter ships with the project, so three ``ast`` scans keep the code
clean.  Every name imported with ``from ... import`` in ``src/`` or
``tests/`` is used: it appears as a bare name (which covers the base of
an attribute) or inside a string annotation.  Every public function,
method or class defined in ``src/`` is referenced somewhere in ``src/``,
``tests/`` or ``perfbench/``: as a name, an attribute, or a string of
dotted names (``perfbench/tracing.py`` names the methods it wraps so).
Every parameter of a function or lambda in ``src/`` is read in its body,
except ``self``, ``cls`` and names that start with ``_``.  No module of
``src/redinv`` imports a name that starts with ``_`` from another, and only
``intmat.py`` reads or writes the certificate ``_pivots`` or the solved
state ``_solved`` of a matrix.  No module of ``src/`` imports ``dataclasses``
or names ``object.__setattr__``, no ``Value`` subclass writes an
``__init__`` that only copies its parameters into its fields, which the
constructor of ``Value`` does, and none defines ``__eq__`` or ``__hash__``.

A reach guard runs the command line over a small corpus and lists the
public functions and methods of ``src/`` that no command calls; each must
have a reason to stay in ``UNREACHED``.  An ``acceptance`` reason holds
only when the acceptance criteria reach the name, directly or through the
bodies of the ``src/`` functions they name.
"""

import ast
import contextlib
import io
import json
import os
import re
import sys

import pytest

import redinv
from redinv import cli, intmat, rootdata
from redinv.catalogio import default_catalog_path

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


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that source imports, relative
    imports left out."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_import_scan():
    src = "import os.path, re as r\nfrom json import dumps\nfrom . import x\n"
    assert imported_modules(src) == {"os", "re", "json"}


@pytest.mark.parametrize("path", sorted(_python_files(("src",))))
def test_no_dataclasses_in_src(path):
    # a frozen dataclass costs its import (inspect, ast, dis, tokenize) and
    # an exec per generated method on every cold start; src uses redinv.value
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert "dataclasses" not in imported_modules(fh.read())


def setattr_bypasses(source: str) -> list[int]:
    """The lines that name ``object.__setattr__``: in code, however it is
    spaced, or in a comment or docstring."""
    lines = {node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"}
    lines |= {k for k, line in enumerate(source.splitlines(), 1) if "object.__setattr__" in line}
    return sorted(lines)


def test_scan_flags_object_setattr():
    src = ("x = 1  # object.__setattr__ in a comment\nobject.__setattr__(a, 'b', 1)\n"
           "put = object . __setattr__\na.__dict__.update(b=1)\n"
           "a.__dict__['c'] = 2\ntype(a).__setattr__(a, 'b', 1)\n")
    assert setattr_bypasses(src) == [1, 2, 3]


@pytest.mark.parametrize("path", sorted(_python_files(("src",))))
def test_no_object_setattr_in_src(path):
    # a Value writes its fields in one self.__dict__.update and its memos
    # into __dict__, not one object.__setattr__ call a field
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert setattr_bypasses(fh.read()) == []


def copy_only_inits(source: str) -> list[str]:
    """The ``Value`` subclasses whose ``__init__`` does nothing but
    ``object.__setattr__(self, "<field>", <parameter>)`` for names in their
    ``FIELDS``, or ``self.__dict__.update(<field>=<field>, ...)`` with each
    key a field and each value the parameter of that name: the constructor
    that ``Value`` gives them already does so."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef)
                and any(isinstance(b, ast.Name) and b.id == "Value" for b in cls.bases)):
            continue
        fields, init = set(), None
        for node in cls.body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                    and any(isinstance(t, ast.Name) and t.id == "FIELDS" for t in node.targets)):
                fields = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                init = node
        if init is None:
            continue
        self_name, *params = [a.arg for a in init.args.args]

        def copies(stmt) -> bool:
            call = stmt.value if isinstance(stmt, ast.Expr) else None
            if not isinstance(call, ast.Call):
                return False
            if ast.unparse(call.func) == f"{self_name}.__dict__.update":
                return not call.args and all(
                    k.arg in fields and k.arg in params
                    and isinstance(k.value, ast.Name) and k.value.id == k.arg
                    for k in call.keywords)
            return (ast.unparse(call.func) == "object.__setattr__"
                    and len(call.args) == 3 and not call.keywords
                    and ast.unparse(call.args[0]) == self_name
                    and isinstance(call.args[1], ast.Constant) and call.args[1].value in fields
                    and isinstance(call.args[2], ast.Name) and call.args[2].id in params)

        if all(map(copies, init.body)):
            out.append(cls.name)
    return out


def test_scan_flags_a_copy_only_init():
    src = ("class A(Value):\n    FIELDS = ('x', 'y')\n"
           "    def __init__(self, x, y):\n"
           "        object.__setattr__(self, 'x', x)\n        object.__setattr__(self, 'y', y)\n"
           "class Checked(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        object.__setattr__(self, 'x', x)\n        if x < 0: raise ValueError\n"
           "class Memo(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        object.__setattr__(self, 'x', x)\n        object.__setattr__(self, '_m', x)\n"
           "class Computed(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        object.__setattr__(self, 'x', abs(x))\n"
           "class Plain:\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        object.__setattr__(self, 'x', x)\n"
           "class Inherits(Value):\n    FIELDS = ('x',)\n"
           "class B(Value):\n    FIELDS = ('x', 'y')\n"
           "    def __init__(self, x, y):\n        self.__dict__.update(x=x, y=y)\n"
           "class BChecked(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        if x < 0: raise ValueError\n        self.__dict__.update(x=x)\n"
           "class BMemo(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        self.__dict__.update(x=x, _m={})\n"
           "class BComputed(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        self.__dict__.update(x=abs(x))\n"
           "class BSwapped(Value):\n    FIELDS = ('x', 'y')\n    def __init__(self, x, y):\n"
           "        self.__dict__.update(x=y, y=x)\n"
           "class BZipped(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        self.__dict__.update(zip(self.FIELDS, (x,)))\n"
           "class BOther(Value):\n    FIELDS = ('x',)\n    def __init__(self, x):\n"
           "        x.__dict__.update(x=x)\n")
    assert copy_only_inits(src) == ["A", "B"]


@pytest.mark.parametrize("path", sorted(_python_files(("src",))))
def test_no_copy_only_init(path):
    # Value.__init__ sets one value per field; writing it out again is boilerplate
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert copy_only_inits(fh.read()) == []


def own_equalities(source: str) -> list[str]:
    """The ``Value`` subclasses that define ``__eq__`` or ``__hash__``:
    ``Value`` already compares and hashes every class by its ``FIELDS``."""
    return [cls.name for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef)
            and any(isinstance(b, ast.Name) and b.id == "Value" for b in cls.bases)
            and any(isinstance(f, ast.FunctionDef) and f.name in ("__eq__", "__hash__")
                    for f in cls.body)]


def test_scan_flags_an_own_equality():
    src = ("class A(Value):\n    FIELDS = ('x',)\n    def __hash__(self): return 0\n"
           "class B(Value):\n    FIELDS = ('x',)\n    def __repr__(self): return 'B'\n")
    assert own_equalities(src) == ["A"]


@pytest.mark.parametrize("path", sorted(_python_files(("src",))))
def test_no_value_class_defines_its_own_equality(path):
    # one equality for every value: a second copy can drift from FIELDS
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert own_equalities(fh.read()) == []


PRIVATE_STATE = {"_pivots", "_solved"}


def private_reaches(source: str) -> list[str]:
    """Private names imported from another ``redinv`` module, and the
    attributes of ``PRIVATE_STATE`` read or written: by name, as a string
    (``setattr`` or ``__dict__[...]``) or as a keyword (``__dict__.update``)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "redinv"):
            out += [f"import {a.name}" for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE_STATE:
            out.append(f".{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in PRIVATE_STATE:
            out.append(f".{node.value}")
        elif isinstance(node, ast.keyword) and node.arg in PRIVATE_STATE:
            out.append(f".{node.arg}")
    return out


def test_private_scan_flags_imports_and_state():
    src = ("from .intmat import _echelon, mat\nfrom redinv.abgrp import _x\n"
           "from os import _exit\nfrom __future__ import annotations\n"
           "m._pivots = 1\nprint(m._solved)\nobject.__setattr__(m, '_pivots', 2)\n"
           "print(m.pivots, '_pivots are listed')\nm.__dict__['_solved'] = 3\n"
           "m.__dict__.update(_pivots=4, pivots=5)\nf(_solved=6)\n")
    assert private_reaches(src) == ["import _echelon", "import _x", "._pivots",
                                    "._solved", "._pivots", "._solved", "._pivots",
                                    "._solved"]


@pytest.mark.parametrize("path", sorted(_python_files(("src",))))
def test_no_private_reach_across_modules(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        found = private_reaches(fh.read())
    if path.endswith(os.path.join("redinv", "intmat.py")):
        found = [f for f in found if f[1:] not in PRIVATE_STATE]
    assert found == []


def referenced_names(source: str | ast.AST) -> set[str]:
    """Names, attributes and the parts of dotted-name strings in source, or
    in a parsed node."""
    out = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
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


# Public functions and methods of src/ that no command of the reach corpus
# calls, each with what does: an acceptance criterion (tests/test_acceptance.py),
# a benchmark op or its set-up (perfbench), or an oracle: a check that the unit
# tests run on the group tables and complexes that reached code builds.  Test
# fixtures and the builders of src/redinv/data/ live under tests/, so no
# reason admits them here.
UNREACHED = {
    "abgrp.FgAbelianGroup.order": "acceptance",  # criterion 1: |mu| of adjoint groups
    "abgrp.kernel": "acceptance",  # criterion 5: H^0 of a Cech input is ker phi
    "catalogio.CatalogFile.specs": "acceptance",  # criteria 2-4 loop over the catalog
    "catalogio.load_catalog": "benchmark",  # perfbench/run.py set-up: load_catalog()
    "catalogio.verify_catalog": "benchmark",  # perfbench/run.py set-up, inside load_catalog
    "gammamod.FiniteGroup.check": "benchmark",  # perfbench/run.py bar_cohomology op
    "gammamod.FiniteGroup.from_json": "benchmark",  # perfbench/run.py bar_cohomology op
    "gammamod.GammaModule.from_json": "benchmark",  # perfbench/run.py bar_cohomology op
    "gammamod.group_cohomology": "acceptance",  # criterion 7
    "homcx.BoundedComplex.check": "oracle",  # test oracle: d o d = 0 on tests' complexes
    "homcx.BoundedComplex.cohomology": "acceptance",  # criteria 2, 3 and 8
    "homcx.BoundedComplex.is_acyclic": "acceptance",  # criterion 8
    "homcx.cohomology_isomorphism_check": "acceptance",  # criterion 8
    "homcx.cone": "acceptance",  # criterion 8
    "homcx.cone_triangle": "acceptance",  # criterion 8
    "homcx.identity_chain_map": "acceptance",  # criterion 8
    "homcx.is_quasi_iso": "acceptance",  # criterion 8
    "homcx.quotient": "acceptance",  # criteria 6 and 8
    "homcx.shift": "acceptance",  # criterion 8
    "homcx.single_term_complex": "acceptance",  # criterion 8
    "homcx.six_term_sequence": "acceptance",  # criterion 6
    "homcx.truncate": "acceptance",  # criterion 8
    "homcx.truncation_triangle_check": "acceptance",  # criterion 8
    "tres.ComparisonVerdict.agrees": "acceptance",  # criterion 3
    "tres.canonical_h_maps": "acceptance",  # criteria 2 and 3
    "tres.compare_resolutions": "acceptance",  # criterion 3
}


def test_every_unreached_entry_says_what_reaches_it():
    with open(__file__, encoding="utf-8") as fh:
        source = fh.read()
    block = source[source.index("UNREACHED = {\n"):]
    entries = block[:block.index("\n}\n")].splitlines()[1:]
    assert len(entries) == len(UNREACHED) and all("  # " in e for e in entries)


def acceptance_closure(criteria: str, sources: list[str]) -> set[str]:
    """The names that the acceptance criteria reference, closed under the
    bodies of the functions so named in ``sources``.  A class named brings
    in its dunder methods, which run without being named."""
    bodies: dict[str, list[ast.AST]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                bodies.setdefault(node.name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                bodies.setdefault(node.name, []).extend(
                    f for f in node.body if isinstance(f, ast.FunctionDef)
                    and f.name.startswith("__"))
    reached = referenced_names(criteria)
    todo = list(reached)
    while todo:
        for body in bodies.get(todo.pop(), ()):
            new = referenced_names(body) - reached
            reached |= new
            todo += new
    return reached


def test_acceptance_closure_follows_bodies():
    src = ("class A:\n    def __init__(self): g()\n    def m(self): h()\n"
           "def f(): return A()\ndef g(): pass\ndef h(): pass\ndef k(): pass\n")
    reached = acceptance_closure("f()", [src])
    assert {"f", "A", "g"} <= reached and not {"m", "h", "k"} & reached


def test_every_acceptance_entry_is_reached_from_the_criteria():
    sources = []
    for path in _python_files(("src",)):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            sources.append(fh.read())
    with open(os.path.join(ROOT, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        reached = acceptance_closure(fh.read(), sources)
    unreached = [name for name, why in UNREACHED.items()
                 if why == "acceptance" and name.split(".")[-1] not in reached]
    assert unreached == []


def public_functions(source: str, module: str) -> dict[int, str]:
    """First line -> ``module.name`` or ``module.Class.name`` of each public
    function at module level or in the body of a public class.  The first
    line is that of the first decorator, as the code object reports it."""
    out = {}

    def visit(body, prefix):
        for node in body:
            if not isinstance(node, (ast.ClassDef, ast.FunctionDef)) or node.name[0] == "_":
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            else:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[first] = f"{module}.{prefix}{node.name}"

    visit(ast.parse(source).body, "")
    return out


def test_public_functions_scan():
    src = ("def f(): pass\ndef _g(): pass\nclass A:\n    @property\n"
           "    def p(self): pass\n    def _q(self): pass\n"
           "    def r(self):\n        def inner(): pass\nclass _B:\n    def s(self): pass\n")
    assert public_functions(src, "m") == {1: "m.f", 4: "m.A.p", 7: "m.A.r"}


def reach_corpus(tmp_path) -> list[list[str]]:
    """Every subcommand in both formats: one spec per row of the family
    table (its least argument + 2 keeps the row's parity), an exceptional type and both twists through invariants and both
    resolutions, two SES fixtures, one cech input, both normal forms and
    one bad spec."""
    specs = [f"{head}({least + 2})" for (head, _), (least, _, _) in rootdata._FAMILIES.items()]
    specs += ["G2", "SL(3)xGamma:flip", "PSO(8)xGamma:triality"]
    cech = tmp_path / "cech.json"
    cech.write_text(json.dumps({"fx": {"ambientRank": 2, "relations": [["4", "0"]]},
                                "fg": {"ambientRank": 2, "relations": [["6", "0"]]},
                                "phi": [["3", "0"], ["2", "5"]]}))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([["2", "4"], ["6", "8"]]))
    data = os.path.dirname(default_catalog_path())
    argvs = [argv for spec in specs for argv in (
        ["invariants", spec], ["pi1d", spec], ["pi1d", spec, "--resolution", "pushout"])]
    argvs += [["check-ses", os.path.join(data, name)]
              for name in ("ses_gm_gl3_pgl3.json", "ses_sl3_gl3_gm.json")]
    argvs += [["cech", str(cech)], ["matrix", "hnf", str(matrix)],
              ["matrix", "snf", str(matrix)], ["invariants", "Nope(3)"]]
    return [argv + ["--format", fmt] for argv in argvs for fmt in ("human", "json")]


def run_profiled(corpus: list[list[str]]) -> tuple[list[int], set]:
    """Exit codes of the corpus and the code objects of every Python call it
    makes."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            codes = [cli.main(argv) for argv in corpus]
        finally:
            sys.setprofile(None)
    return codes, called


@pytest.fixture
def fresh_cli(monkeypatch):
    monkeypatch.delenv("REDINV_CATALOG", raising=False)
    # the corpus builds the shared parser afresh, whatever ran before it
    monkeypatch.setattr(cli, "_parser", None)


@pytest.mark.usefixtures("fresh_cli")
def test_every_unreached_definition_has_a_reason(tmp_path):
    package = os.path.dirname(os.path.realpath(redinv.__file__))
    defined = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, encoding="utf-8") as fh:
                for line, qualname in public_functions(fh.read(), name[:-3]).items():
                    defined[path, line] = qualname
    corpus = reach_corpus(tmp_path)
    # a first, unprofiled pass fills whatever caches the code keeps, so a
    # public function that a cache answers before its body runs counts as
    # unreached whatever tests ran before this one
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in corpus:
            cli.main(argv)
    codes, called = run_profiled(corpus)
    assert codes.count(2) == 2 and set(codes) == {0, 2}  # only the bad spec fails
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called}
    unreached = {qualname for key, qualname in defined.items() if key not in reached}
    assert set(UNREACHED.values()) <= {"acceptance", "benchmark", "oracle"}
    assert unreached == set(UNREACHED)


@pytest.mark.usefixtures("fresh_cli")
def test_only_the_matrix_command_runs_hnf(tmp_path):
    # kernels and coordinates come from the lattice solver, which carries
    # only the columns it needs; the full transform of hnf is for records
    corpus = reach_corpus(tmp_path)
    matrix = [argv for argv in corpus if argv[0] == "matrix"]
    _, called = run_profiled([argv for argv in corpus if argv[0] != "matrix"])
    assert intmat.hnf.__code__ not in called
    _, called = run_profiled(matrix)
    assert matrix and intmat.hnf.__code__ in called
