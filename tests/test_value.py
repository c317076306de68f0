"""The value classes of ``src/redinv``: each is equal, hashed and printed by
the fields its ``FIELDS`` names, keeps its memos out of all three, and
refuses to assign or delete any attribute.  A class that only copies its
fields takes the constructor of ``Value``, one value per field in order."""

import inspect

import pytest

from redinv import catalogio, cech, homcx, rootdata, tres
from redinv.intmat import IntMatrix, identity, mat
from redinv.abgrp import AbHom, Checks, ExactSequence, FgAbelianGroup, SubquotientData
from redinv.gammamod import FiniteGroup, GammaHom, GammaModule, cyclic_group, induced_module
from redinv.value import Value

from regen import ses_gm_gl_pgl


def _group() -> FgAbelianGroup:
    return FgAbelianGroup(2, mat([[2, 0]]))


def _gamma_hom() -> GammaHom:
    m = induced_module(cyclic_group(2), 1)
    return GammaHom(m, m, identity(2))


def _cech_input() -> cech.CechInput:
    fx, fg = FgAbelianGroup(1, mat([[4]])), FgAbelianGroup(1, mat([[6]]))
    return cech.CechInput(fx, fg, AbHom(fx, fg, mat([[3]])))


def _entry() -> catalogio.CatalogEntry:
    return catalogio.CatalogEntry("SL(2)", {"pi1": {"rank": 0, "torsion": [2]}}, "test")


# Each builder makes a new value from new but equal fields on every call.
BUILDERS = {
    IntMatrix: lambda: mat([[1, 2], [3, 4]]),
    FgAbelianGroup: _group,
    AbHom: lambda: AbHom(_group(), _group(), identity(2)),
    SubquotientData: lambda: SubquotientData(_group(), identity(2)),
    Checks: lambda: Checks((("a", True, None), ("b", False, "witness"))),
    ExactSequence: lambda: ExactSequence(
        ("A", "B"), (AbHom(FgAbelianGroup.free(1), FgAbelianGroup.free(1), mat([[1]])),)),
    FiniteGroup: lambda: cyclic_group(3),
    GammaModule: lambda: induced_module(cyclic_group(2), 1),
    GammaHom: _gamma_hom,
    rootdata.RootDatum: lambda: rootdata.from_catalog("GL(2)").datum,
    rootdata.ReductiveDatum: lambda: rootdata.from_catalog("SL(3)xGamma:flip"),
    catalogio.CatalogEntry: _entry,
    catalogio.CatalogFile: lambda: catalogio.CatalogFile(1, (_entry(),)),
    catalogio.ResultRecord: lambda: catalogio.ResultRecord(
        "invariants", "0" * 64, {"pi1": [1]}, {"ok": True}),
    homcx.BoundedComplex: lambda: homcx.two_term_complex(_gamma_hom()),
    homcx.ChainMap: lambda: homcx.identity_chain_map(homcx.two_term_complex(_gamma_hom())),
    tres.TResolutionData: lambda: tres.canonical_tresolution(rootdata.from_catalog("GL(2)")),
    tres.ComparisonVerdict: lambda: tres.ComparisonVerdict(
        "certified", Checks((("first-H0-canonical-iso", True, None),))),
    tres.SESData: lambda: ses_gm_gl_pgl(3),
    cech.CechInput: _cech_input,
    cech.CechComplex: lambda: cech.build_complex(_cech_input(), 3),
}

# What each class keeps besides its fields, set on construction or on use.
MEMOS = {
    IntMatrix: ("_pivots", "_solved"),
    FiniteGroup: ("identity", "_inverses", "_tree"),
    GammaHom: ("hom",),
    rootdata.ReductiveDatum: ("_kept",),
    homcx.BoundedComplex: ("_kept",),
}

CLASSES = sorted(BUILDERS, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_every_value_class_is_covered():
    assert len(CLASSES) == 21
    assert set(Value.__subclasses__()) == set(CLASSES)


def hash_or_error(value):
    """hash(value), or the TypeError of a value with an unhashable field."""
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__qualname__ for c in CLASSES])
class TestValueClass:
    def test_equal_fields_give_equal_values(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        assert hash_or_error(a) == hash_or_error(b)
        assert a != object() and a.__eq__(object()) is NotImplemented

    def test_repr_lists_the_fields_in_order(self, cls):
        a = BUILDERS[cls]()
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in cls.FIELDS)
        assert repr(a) == f"{cls.__qualname__}({fields})"

    def test_memos_take_no_part(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        want = (repr(a), hash_or_error(a))
        for name in MEMOS.get(cls, ()):
            assert name not in cls.FIELDS
            object.__setattr__(b, name, ["another memo"])
            assert a == b and (repr(b), hash_or_error(b)) == want
            assert name + "=" not in repr(b)

    def test_no_attribute_can_be_assigned_or_deleted(self, cls):
        a = BUILDERS[cls]()
        for name in cls.FIELDS + MEMOS.get(cls, ()) + ("new_attribute",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert a == BUILDERS[cls]()


# The classes that neither check their input nor keep a memo take the
# constructor of Value; the others write their own and set their fields
# directly, without calling it.
INHERITED = [cls for cls in CLASSES if cls.__init__ is Value.__init__]


def test_the_copying_classes_inherit_the_constructor():
    assert {cls.__qualname__ for cls in INHERITED} == {
        "SubquotientData", "Checks", "CatalogEntry", "CatalogFile", "ResultRecord",
        "CechComplex", "ChainMap", "RootDatum", "TResolutionData", "ComparisonVerdict",
        "SESData"}
    for cls in set(CLASSES) - set(INHERITED):
        assert "super()" not in inspect.getsource(cls.__init__)


@pytest.mark.parametrize("cls", INHERITED, ids=[c.__qualname__ for c in INHERITED])
class TestInheritedConstructor:
    def test_one_value_per_field_in_order(self, cls):
        a = BUILDERS[cls]()
        values = [getattr(a, name) for name in cls.FIELDS]
        b = cls(*values)
        assert b == a and all(getattr(b, n) is v for n, v in zip(cls.FIELDS, values))

    def test_one_field_too_few_raises(self, cls):
        values = [getattr(BUILDERS[cls](), name) for name in cls.FIELDS]
        with pytest.raises(TypeError, match=f"{cls.__qualname__}.. takes {len(values)}"):
            cls(*values[:-1])

    def test_one_field_too_many_raises(self, cls):
        values = [getattr(BUILDERS[cls](), name) for name in cls.FIELDS]
        with pytest.raises(TypeError, match=f"got {len(values) + 1}"):
            cls(*values, values[0])

    def test_fields_are_not_keywords(self, cls):
        a = BUILDERS[cls]()
        with pytest.raises(TypeError):
            cls(**{name: getattr(a, name) for name in cls.FIELDS})
