"""Finite-group actions on finitely generated abelian groups.

A finite group Gamma is given by its full multiplication table.  A
GammaModule is an FgAbelianGroup together with one integer matrix per
group element, acting on row vectors by m -> m @ matrix.  With that
convention the matrices compose in reverse order:

    (g h) . v  =  g . (h . v)  =  (v @ M_h) @ M_g,

so the composition law reads M_{gh} = M_h @ M_g.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from .intmat import IntMatrix, hstack, identity, int_from_json, mat
from .abgrp import (
    AbHom,
    FgAbelianGroup,
    IllDefinedHom,
    homology_at,
    kernel,
    cokernel,
    member_coords,
    power,
)


class InvalidGroupTable(ValueError):
    """The multiplication table is not a group law."""


class InvalidAction(ValueError):
    """The action matrices do not define a Gamma-module structure."""


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def __post_init__(self) -> None:
        n = self.order
        for row in self.table:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise InvalidGroupTable("table is not square over valid indices")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @property
    def identity(self) -> int:
        for e in range(self.order):
            if all(self.mul(e, x) == x and self.mul(x, e) == x for x in range(self.order)):
                return e
        raise InvalidGroupTable("no identity element")

    def inverse(self, a: int) -> int:
        e = self.identity
        for b in range(self.order):
            if self.mul(a, b) == e:
                return b
        raise InvalidGroupTable(f"element {a} has no inverse")

    def check(self) -> None:
        n = self.order
        e = self.identity  # raises when missing
        for a in range(n):
            self.inverse(a)  # raises when missing
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise InvalidGroupTable("associativity fails")

    def elements(self) -> range:
        return range(self.order)

    def to_json(self) -> dict:
        return {"order": self.order, "table": [list(r) for r in self.table]}

    @staticmethod
    def from_json(obj: dict) -> "FiniteGroup":
        rows = obj["table"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise InvalidGroupTable("a table is a list of rows, each a list")
        return FiniteGroup(tuple(tuple(int_from_json(x) for x in r) for r in rows))


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n; elements (r, s) with r in Z/n, s in {0, 1}, s = reflection bit."""
    elems = [(r, s) for s in range(2) for r in range(n)]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        r1, s1 = x
        r2, s2 = y
        # reflections conjugate rotations to their inverses
        return ((r1 + (r2 if s1 == 0 else -r2)) % n, s1 ^ s2)

    return FiniteGroup(
        tuple(tuple(index[mul(x, y)] for y in elems) for x in elems)
    )


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8: {±1, ±i, ±j, ±k}."""
    # encode q = (sign bit, symbol) with symbols 1, i, j, k
    elems = [(s, a) for s in range(2) for a in range(4)]
    index = {x: i for i, x in enumerate(elems)}
    # products of symbols: (result symbol, sign bit)
    prod = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }

    def mul(x, y):
        s1, a = x
        s2, b = y
        c, s3 = prod[(a, b)]
        return ((s1 + s2 + s3) % 2, c)

    return FiniteGroup(
        tuple(tuple(index[mul(x, y)] for y in elems) for x in elems)
    )


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    elems = list(itertools.product(range(a.order), range(b.order)))
    index = {x: i for i, x in enumerate(elems)}
    return FiniteGroup(
        tuple(
            tuple(index[(a.mul(x[0], y[0]), b.mul(x[1], y[1]))] for y in elems)
            for x in elems
        )
    )


@dataclass(frozen=True)
class GammaModule:
    gamma: FiniteGroup
    group: FgAbelianGroup
    actions: tuple[IntMatrix, ...]  # one matrix per element, m -> m @ M_g

    def __post_init__(self) -> None:
        if len(self.actions) != self.gamma.order:
            raise InvalidAction("one action matrix per group element required")
        n = self.group.ambient_rank
        for m in self.actions:
            if m.shape != (n, n):
                raise InvalidAction("action matrices must be square of ambient rank")

    def action_hom(self, g: int) -> AbHom:
        return AbHom(self.group, self.group, self.actions[g])

    def act(self, g: int, coords: Sequence[int]) -> tuple[int, ...]:
        return self.group.reduce(self.actions[g].apply_to_row(coords))

    def check(self) -> None:
        if not self.group.contains_rows(
            self.actions[self.gamma.identity] - identity(self.group.ambient_rank)
        ):
            raise InvalidAction("identity element does not act trivially")
        for g in self.gamma.elements():
            h = self.action_hom(g)
            if not h.is_well_defined():
                raise InvalidAction(f"action of element {g} breaks the relations")
            if not h.is_isomorphism():
                raise InvalidAction(f"action of element {g} is not invertible")
        for g in self.gamma.elements():
            for h in self.gamma.elements():
                lhs = self.actions[h] @ self.actions[g]
                if not self.group.contains_rows(lhs - self.actions[self.gamma.mul(g, h)]):
                    raise InvalidAction("composition law fails")

    def is_trivial_action(self) -> bool:
        ide = identity(self.group.ambient_rank)
        return all(self.group.contains_rows(m - ide) for m in self.actions)

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma.to_json(),
            "group": self.group.to_json(),
            "action": {str(g): self.actions[g].to_json() for g in self.gamma.elements()},
        }

    @staticmethod
    def from_json(obj: dict) -> "GammaModule":
        gamma = FiniteGroup.from_json(obj["gamma"])
        group = FgAbelianGroup.from_json(obj["group"])
        n = group.ambient_rank
        actions = tuple(
            IntMatrix.from_json(obj["action"][str(g)], cols=n)
            for g in gamma.elements()
        )
        return GammaModule(gamma, group, actions)


def trivial_module(gamma: FiniteGroup, group: FgAbelianGroup) -> GammaModule:
    ide = identity(group.ambient_rank)
    return GammaModule(gamma, group, tuple(ide for _ in gamma.elements()))


def sign_module() -> GammaModule:
    """Z with the order-2 group acting by negation."""
    return GammaModule(
        cyclic_group(2), FgAbelianGroup.free(1), (identity(1), mat([[-1]]))
    )


def induced_module(gamma: FiniteGroup, k: int) -> GammaModule:
    """Z[Gamma]^k with the left-translation action."""
    q = gamma.order
    n = k * q
    actions = []
    for g in gamma.elements():
        rows = []
        for j in range(k):
            for x in gamma.elements():
                row = [0] * n
                row[j * q + gamma.mul(g, x)] = 1
                rows.append(row)
        actions.append(mat(rows, n))
    return GammaModule(gamma, FgAbelianGroup.free(n), tuple(actions))


@dataclass(frozen=True)
class GammaHom:
    """A map of Gamma-modules: one matrix, with the modules as its ends."""

    source: GammaModule
    target: GammaModule
    matrix: IntMatrix
    hom: AbHom = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # AbHom raises DimensionMismatch for a matrix of the wrong shape
        object.__setattr__(self, "hom", AbHom(self.source.group, self.target.group, self.matrix))

    def is_equivariant(self) -> bool:
        if self.source.gamma != self.target.gamma:
            return False
        a = self.matrix
        return all(
            self.target.group.contains_rows(self.source.actions[g] @ a - a @ self.target.actions[g])
            for g in self.source.gamma.elements()
        )

    def check(self) -> None:
        self.hom.check_well_defined()
        if not self.is_equivariant():
            raise IllDefinedHom("hom does not commute with the group action")


def induced_action_on_subgroup(
    module: GammaModule, gens: IntMatrix, sub: FgAbelianGroup
) -> tuple[IntMatrix, ...]:
    """Action matrices on a stable subgroup, written on the given generators."""
    out = []
    for act in module.actions:
        c = member_coords(gens, module.group.relations, gens @ act)
        if c is None:
            raise InvalidAction("subgroup is not stable under the action")
        out.append(c)
    return tuple(out)


def equivariant_kernel(f: GammaHom) -> tuple[GammaModule, GammaHom]:
    k, inc = kernel(f.hom)
    actions = induced_action_on_subgroup(f.source, inc.matrix, k)
    km = GammaModule(f.source.gamma, k, actions)
    return km, GammaHom(km, f.source, inc.matrix)


def equivariant_cokernel(f: GammaHom) -> tuple[GammaModule, GammaHom]:
    c, proj = cokernel(f.hom)
    cm = GammaModule(f.target.gamma, c, f.target.actions)
    return cm, GammaHom(f.target, cm, proj.matrix)


def fixed_points(module: GammaModule) -> tuple[FgAbelianGroup, AbHom]:
    """The subgroup of elements fixed by every group element."""
    n = module.group.ambient_rank
    ide = identity(n)
    blocks = [module.actions[g] - ide for g in module.gamma.elements()]
    stacked = hstack(*blocks)  # n x (n*|Gamma|): column blocks are (M_g - 1)
    f = AbHom(module.group, power(module.group, module.gamma.order), stacked)
    return kernel(f)


def cochain_group(module: GammaModule, i: int) -> FgAbelianGroup:
    """Normalized i-cochains as a plain group: one copy of M per i-tuple
    of non-identity elements, so (q - 1)^i copies."""
    return power(module.group, (module.gamma.order - 1) ** i)


def bar_differential(module: GammaModule, i: int) -> AbHom:
    """The degree-i differential of the normalized inhomogeneous bar complex.

    Normalized cochains vanish on every tuple with an identity entry, so
    they live on tuples of non-identity elements; the complex computes the
    same cohomology as the full one (Brown, Cohomology of Groups, III.1).
    Each target tuple s = (g1, ..., g_{i+1}) has i + 2 faces, and each
    face adds one n x n block to the rows of its source tuple in the
    columns of s.  A middle face whose merged product is the identity
    falls on a cochain that vanishes, and is dropped.
    """
    gamma = module.gamma
    e = gamma.identity
    nonid = [g for g in gamma.elements() if g != e]
    n = module.group.ambient_rank
    src_index = {t: a for a, t in enumerate(itertools.product(nonid, repeat=i))}
    tgt_tuples = list(itertools.product(nonid, repeat=i + 1))
    width = n * len(tgt_tuples)
    rows = [[0] * width for _ in range(n * len(src_index))]
    for b, s in enumerate(tgt_tuples):
        base = n * b
        # first face: g1 . c(g2..g_{i+1}), the block M_{g1}
        top = n * src_index[s[1:]]
        for k, moved in enumerate(module.actions[s[0]].data):
            row = rows[top + k]
            for a, x in enumerate(moved):
                if x:
                    row[base + a] += x
        # middle faces (-1)^j c(.., g_j g_{j+1}, ..), then the last face
        # (-1)^{i+1} c(g1..g_i): each a signed identity block, unless a
        # merged product is the identity
        merged = [s[: j - 1] + (gamma.mul(s[j - 1], s[j]),) + s[j + 1:] for j in range(1, i + 1)]
        for j, t in enumerate(merged + [s[:i]], start=1):
            if e in t:
                continue
            top = n * src_index[t]
            sign = -1 if j % 2 else 1
            for k in range(n):
                rows[top + k][base + k] += sign
    src = cochain_group(module, i)
    tgt = cochain_group(module, i + 1)
    return AbHom(src, tgt, IntMatrix(tuple(map(tuple, rows)), width))


def group_cohomology(module: GammaModule, i: int) -> FgAbelianGroup:
    """H^i(Gamma, M) of the normalized bar cochain complex, for i in {0, 1, 2}."""
    if i not in (0, 1, 2):
        raise ValueError(f"unsupported cohomology degree {i}")
    d_out = bar_differential(module, i)
    d_in = bar_differential(module, i - 1) if i > 0 else None
    return homology_at(d_in, d_out).group
