"""The names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` imports every module of ``LAYERS`` and patches
each ``(layer, class, method)`` of ``METHODS`` through
``vars(klass)[method]``.  A refactor that renames or removes one of them
makes ``Tracer.install`` raise, and a traced benchmark run stops before
its first op; this test fails first.  It reads the tracer's file and
changes nothing in it.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("traced_names_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_every_layer_imports(layer):
    importlib.import_module(f"redinv.{layer}")


@pytest.mark.parametrize("layer, cls, meth", tracing.METHODS,
                         ids=[".".join(m) for m in tracing.METHODS])
def test_every_traced_method_resolves(layer, cls, meth):
    klass = getattr(importlib.import_module(f"redinv.{layer}"), cls)
    assert callable(vars(klass)[meth])


def test_group_construction_runs_the_wrapped_post_init(monkeypatch):
    # the tracer's FgAbelianGroup.init span wraps __post_init__, so every
    # group built must call it through the class
    from redinv.abgrp import FgAbelianGroup
    from redinv.intmat import mat

    built, post_init = [], FgAbelianGroup.__post_init__
    monkeypatch.setattr(FgAbelianGroup, "__post_init__",
                        lambda g: built.append(g) or post_init(g))
    g = FgAbelianGroup(2, mat([[2, 4], [0, 6]]))
    assert built == [g] and g.relations._pivots is not None
