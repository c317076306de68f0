"""Random reductive data: lattices Q <= X <= P, products of two types and
central tori.

A seeded generator picks one or two Dynkin types and, for each, a lattice
X between the root lattice Q and the weight lattice P = Z^r: the Hermite
basis B of the rows of the Cartan matrix C (the simple roots in the
fundamental-weight basis) and of 0-2 random weights.  On the basis B of X
the simple roots are the coordinates R with R @ B = C, and the simple
coroots are the rows of B^T, since a coroot pairs with x @ B as the
fundamental weights pair with it.  A central torus of rank t adds t
coordinates on which no root or coroot lives.

On each datum, computed afresh:
- it passes ``validate``;
- mu* = P / X, so |mu*| = |det B| by the Bareiss ``det`` of
  ``tests/oracles.py``;
- pi_1 and mu* are dual finite groups up to the torus, so they have the
  same torsion, and each torus coordinate adds one Z to pi_1 and to the
  character group, while mu* stays finite.

A product of two types, or a datum with a torus, has the direct sums of
its factors' invariants, compared by elementary divisors; the torus adds
Z^t to the character group, pi_1 and the radical characters.  On a seeded
subset, the relations of ``test_change_of_basis`` and
``test_datum_relations`` hold too.
"""

import math
import random

import pytest

from redinv.intmat import (
    IntMatrix,
    block_diag,
    hermite_basis,
    hstack,
    identity,
    member_coords,
    vstack,
    zeros,
)
from redinv.rootdata import (
    ReductiveDatum,
    RootDatum,
    cartan_matrix,
    character_group,
    mu_dual,
    pi1,
    radical_characters,
    validate,
)

from oracles import det, random_matrix, random_unimodular
from test_change_of_basis import _invariants, _moved
from test_datum_relations import _dual, _with_roots

TYPES = ([("A", n) for n in range(1, 8)] + [("B", n) for n in range(2, 6)]
         + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 7)]
         + [(kind, 0) for kind in ("E6", "E7", "E8", "F4", "G2")])
SEEDS = range(300)
SUBSET = range(0, 300, 15)  # where the change-of-basis and datum relations run


def _factor(rng: random.Random) -> tuple[IntMatrix, IntMatrix]:
    """The Cartan matrix C of a random type, and the Hermite basis B of the
    rows of C and of 0-2 random weights."""
    c = cartan_matrix(*rng.choice(TYPES))
    return c, hermite_basis(vstack(c, random_matrix(rng, rng.randrange(3), c.rows, 3)))


def _factors(seed: int) -> tuple[list[tuple[IntMatrix, IntMatrix]], int]:
    """One factor, or two in one seed of three, and a torus of rank 0-2."""
    rng = random.Random(seed)
    factors = [_factor(rng) for _ in range(1 + (rng.randrange(3) == 0))]
    return factors, rng.randrange(3)


def _datum(factors: list[tuple[IntMatrix, IntMatrix]], torus: int) -> ReductiveDatum:
    """The datum on X = the block sum of the factors' lattices, times Z^torus."""
    c = block_diag(*(c for c, _ in factors))
    b = block_diag(*(b for _, b in factors))
    r = b.rows
    roots = hstack(member_coords(b, None, c), zeros(r, torus))
    coroots = hstack(b.transpose(), zeros(r, torus))
    return ReductiveDatum.untwisted("random", RootDatum(r + torus, roots.data, coroots.data))


def _primary(torsion) -> list[int]:
    """The elementary divisors (prime powers) of a torsion list."""
    out = []
    for d in torsion:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d, q = d // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _shape(inv: tuple) -> tuple[int, list[int]]:
    rank, torsion = inv
    return rank, _primary(torsion)


GROUPS = (character_group, mu_dual, pi1, radical_characters)


def _groups(d: ReductiveDatum) -> dict:
    return {f.__name__: _shape(f(d).group.invariants()) for f in GROUPS}


@pytest.mark.parametrize("seed", SEEDS)
def test_random_lattice_orders(seed):
    factors, torus = _factors(seed)
    d = _datum(factors, torus)
    assert validate(d).passed
    mu, p1, chars = (f(d).group.invariants() for f in (mu_dual, pi1, character_group))
    assert mu[0] == 0 and p1[0] == chars[0] == torus and not chars[1]
    assert mu[1] == p1[1]
    assert math.prod(mu[1]) == abs(det(block_diag(*(b for _, b in factors))))


@pytest.mark.parametrize("seed", [s for s in SEEDS if len(_factors(s)[0]) == 2 or _factors(s)[1]])
def test_products_and_tori_are_direct_sums(seed):
    factors, torus = _factors(seed)
    want = {f.__name__: (0 if f is mu_dual else torus, []) for f in GROUPS}
    for factor in factors:
        for name, (rank, primary) in _groups(_datum([factor], 0)).items():
            want[name] = (want[name][0] + rank, sorted(want[name][1] + primary))
    assert _groups(_datum(factors, torus)) == want


@pytest.mark.parametrize("seed", SUBSET)
def test_datum_relations_on_random_lattices(seed):
    factors, torus = _factors(seed)
    d = _datum(factors, torus)
    rd, n = d.datum, d.datum.rank
    want = _invariants(d)
    u = random_unimodular(random.Random(seed), n)
    assert _invariants(_moved(d, u, member_coords(u, None, identity(n)).transpose())) == want
    assert validate(_dual(d)).passed and _dual(_dual(d)) == d
    if not torus:
        c = rd.cartan_pairing()
        assert pi1(_dual(d)).group.order() * mu_dual(d).group.order() == abs(det(c))
    perm = list(range(rd.semisimple_rank))
    random.Random(seed).shuffle(perm)
    relabelled = _with_roots(d, [rd.simple_roots[i] for i in perm],
                             [rd.simple_coroots[i] for i in perm], d.actions)
    assert validate(relabelled).passed and _invariants(relabelled) == want
