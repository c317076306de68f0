"""Langlands duality, the orders of a semisimple datum and node relabelling.

Each relation runs on the 26 catalog specs, and each side is computed
afresh from its own datum.

- The Langlands dual swaps the simple roots and coroots, and Gamma acts on
  X-dual by ``dual_actions``.  It must pass ``validate``, and its dual is
  the datum again.
- For a semisimple datum, P / Q is cut by X into X / Q, which is pi_1 of
  the dual, and P / X = mu*, so |pi_1 of the dual| |mu*| = |det C| for the
  Cartan matrix C.  And pi_1 and mu* are dual finite groups, so they have
  the same invariants.
- Relabelling the Dynkin nodes, one seeded permutation of the roots and
  the coroots together that moves a node wherever there are two, must
  pass ``validate`` and change no invariant.

As a negative control, coroots in place of the roots must fail
``validate``, except where the roots already equal the coroots.
"""

import random

import pytest

from redinv.rootdata import ReductiveDatum, RootDatum, from_catalog, mu_dual, pi1, validate

from oracles import det
from regen import CATALOG_SPECS
from test_change_of_basis import _invariants


def _with_roots(d: ReductiveDatum, roots, coroots, actions) -> ReductiveDatum:
    return ReductiveDatum(d.name, RootDatum(d.datum.rank, tuple(roots), tuple(coroots)),
                          d.gamma, actions)


def _dual(d: ReductiveDatum) -> ReductiveDatum:
    return _with_roots(d, d.datum.simple_coroots, d.datum.simple_roots, d.dual_actions())


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_langlands_dual_is_a_datum_and_an_involution(spec):
    d = from_catalog(spec)
    assert validate(_dual(d)).passed
    assert _dual(_dual(d)) == d


def _semisimple(spec: str) -> bool:
    rd = from_catalog(spec).datum
    return rd.semisimple_rank == rd.rank


@pytest.mark.parametrize("spec", [s for s in CATALOG_SPECS if _semisimple(s)])
def test_semisimple_orders_and_pi1_against_mu_dual(spec):
    d = from_catalog(spec)
    mu = mu_dual(d).group
    assert pi1(_dual(d)).group.order() * mu.order() == abs(det(d.datum.cartan_pairing()))
    assert pi1(d).group.invariants() == mu.invariants()


@pytest.mark.parametrize("spec", CATALOG_SPECS)
def test_node_relabelling_changes_no_invariant(spec):
    d = from_catalog(spec)
    rd = d.datum
    rng, perm = random.Random(spec), list(range(rd.semisimple_rank))
    while len(perm) > 1 and perm == sorted(perm):  # a seeded permutation that moves a node
        rng.shuffle(perm)
    moved = _with_roots(d, [rd.simple_roots[i] for i in perm],
                        [rd.simple_coroots[i] for i in perm], d.actions)
    assert validate(moved).passed
    assert _invariants(moved) == _invariants(d)


def _roots_differ_from_coroots(spec: str) -> bool:
    rd = from_catalog(spec).datum
    return bool(rd.simple_roots) and rd.simple_roots != rd.simple_coroots


SWAPPABLE = [s for s in CATALOG_SPECS if _roots_differ_from_coroots(s)]


def test_only_gl_and_so8_have_roots_equal_to_their_coroots():
    with_roots = [s for s in CATALOG_SPECS if from_catalog(s).datum.simple_roots]
    assert len(with_roots) == 24
    assert sorted(set(with_roots) - set(SWAPPABLE)) == ["GL(2)", "GL(3)", "SO(8)"]


@pytest.mark.parametrize("spec", SWAPPABLE)
def test_coroots_in_place_of_roots_fail_validation(spec):
    d = from_catalog(spec)
    coroots = d.datum.simple_coroots
    assert not validate(_with_roots(d, coroots, coroots, d.actions)).passed
