"""A change of basis of the character lattice X changes no invariant.

For a unimodular U, the datum with simple roots alpha_i U, simple coroots
alpha_i-dual U^-T and actions U^-1 M_g U is the same reductive datum in
another basis of X: every pairing <alpha_i U, alpha_j-dual U^-T> is
<alpha_i, alpha_j-dual>, and U^-1 M_g U permutes the moved roots as M_g
permutes the old ones.  So it must pass ``validate`` and give the same
character group, mu*, pi_1 and radical characters, and the same H^-1 and
H^0 of [R* -> T*] from both torus resolutions, each computed afresh from
the moved datum.  Three seeded U per catalog spec.  As a negative control,
coroots moved by U in place of U^-T must fail ``validate`` wherever they
change the Cartan pairing.
"""

import random

import pytest

from redinv.homcx import two_term_complex
from redinv.intmat import IntMatrix, identity, mat, member_coords
from redinv.rootdata import (
    ReductiveDatum,
    RootDatum,
    character_group,
    from_catalog,
    mu_dual,
    pi1,
    radical_characters,
    validate,
)
from redinv.tres import canonical_tresolution, pushout_tresolution

from oracles import is_unimodular, random_unimodular
from regen import CATALOG_SPECS

SEEDS = (1, 2, 3)


def _moved(d: ReductiveDatum, u: IntMatrix, co: IntMatrix) -> ReductiveDatum:
    """d with its roots times u, its coroots times co and each action M
    as u^-1 M u."""
    rd, n = d.datum, d.datum.rank
    u_inv = member_coords(u, None, identity(n))
    return ReductiveDatum(
        d.name, RootDatum(n, (mat(rd.simple_roots, n) @ u).data,
                          (mat(rd.simple_coroots, n) @ co).data),
        d.gamma, tuple(u_inv @ m @ u for m in d.actions))


def _invariants(d: ReductiveDatum) -> dict:
    out = {f.__name__: f(d).group.invariants()
           for f in (character_group, mu_dual, pi1, radical_characters)}
    for res in (canonical_tresolution(d), pushout_tresolution(d)):
        cx = two_term_complex(res.rho_star)
        for n in (-1, 0):
            out[f"{res.provenance} H{n}"] = cx.cohomology_data(n).group.invariants()
    return out


def _basis_change(spec: str, seed: int) -> tuple[ReductiveDatum, IntMatrix, IntMatrix]:
    """The catalog datum of spec, a seeded unimodular U and U^-1."""
    d = from_catalog(spec)
    n = d.datum.rank
    u = random_unimodular(random.Random(f"{spec}:{seed}"), n)
    return d, u, member_coords(u, None, identity(n))


CASES = [(spec, seed) for spec in CATALOG_SPECS for seed in SEEDS]


@pytest.mark.parametrize("spec, seed", CASES)
def test_change_of_basis_changes_no_invariant(spec, seed):
    d, u, u_inv = _basis_change(spec, seed)
    assert is_unimodular(u) and (u_inv @ u).is_identity()
    moved = _moved(d, u, u_inv.transpose())
    assert validate(moved).passed
    assert _invariants(moved) == _invariants(d)


def _moves_the_pairing(spec: str, seed: int) -> bool:
    """Coroots moved by U give another Cartan pairing: U U^T is not I on
    the roots.  A U that is not orthogonal may still keep the pairing, and
    then a valid datum: on GL(2) with seed 2, U = [[0, 1], [1, 2]] sends
    alpha = alpha-dual = (1, -1) to (-1, -1), and <(-1, -1), (-1, -1)> = 2."""
    d, u, _ = _basis_change(spec, seed)
    moved = _moved(d, u, u).datum
    return bool(d.datum.simple_roots) and moved.cartan_pairing() != d.datum.cartan_pairing()


@pytest.mark.parametrize("spec, seed", [c for c in CASES if _moves_the_pairing(*c)])
def test_coroots_moved_by_u_fail_validation(spec, seed):
    d, u, _ = _basis_change(spec, seed)
    assert not validate(_moved(d, u, u)).passed
