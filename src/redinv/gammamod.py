"""Finite-group actions on finitely generated abelian groups.

A finite group Gamma is given by its full multiplication table.  A
GammaModule is an FgAbelianGroup together with one integer matrix per
group element, acting on row vectors by m -> m @ matrix.  With that
convention the matrices compose in reverse order:

    (g h) . v  =  g . (h . v)  =  (v @ M_h) @ M_g,

so the composition law reads M_{gh} = M_h @ M_g, and an element
sum c_g g of Z[Gamma] acts as sum c_g M_g.  A stable subquotient (a
kernel, a cohomology group) inherits its action through one path,
``subquotient_module``.

Group cohomology in degrees 0-2 comes from a presentation <S | R> of
Gamma and the partial free resolution Z[Gamma]^R' -> Z[Gamma]^S ->
Z[Gamma] -> Z by left Fox derivatives (Brown, Cohomology of Groups,
GTM 87, II.5; Lyndon, Ann. of Math. 52, 1950), on a subset R' of the
relators whose Gamma-translates span the same lattice ker(Z[Gamma]^S ->
Z[Gamma]) as R: the resolution is still exact at Z[Gamma]^S, so the
groups are those of R, from far fewer relators (R' has 6 of the 17 of
C2 x C2 x C2 and 3 of the 25 of S4).  The cochains are C^0 = M, C^1 = M^S
and C^2 = M^R', and with no third term a 2-cochain is a cocycle when it
vanishes on the Z-lattice ker(Z[Gamma]^R' -> Z[Gamma]^S).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .intmat import IntMatrix, identity, int_from_json, kernel_basis, mat
from .abgrp import (
    AbHom,
    FgAbelianGroup,
    IllDefinedHom,
    SubquotientData,
    homology_at,
    cokernel,
    power,
)


class InvalidGroupTable(ValueError):
    """The multiplication table is not a group law."""


class InvalidAction(ValueError):
    """The action matrices do not define a Gamma-module structure."""


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    # found once from the table; _inverses[a] is the b with ab = identity
    identity: int = field(init=False, repr=False, compare=False)
    _inverses: tuple[int, ...] = field(init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def __post_init__(self) -> None:
        """Raise InvalidGroupTable unless the table is square over valid
        indices, has an identity and every row contains it (a right
        inverse)."""
        n, t = self.order, self.table
        for row in t:
            if len(row) != n or any(not (0 <= x < n) for x in row):
                raise InvalidGroupTable("table is not square over valid indices")
        e = next((e for e in range(n) if t[e] == tuple(range(n))
                  and all(row[e] == x for x, row in enumerate(t))), None)
        if e is None:
            raise InvalidGroupTable("no identity element")
        for a, row in enumerate(t):
            if e not in row:
                raise InvalidGroupTable(f"element {a} has no inverse")
        object.__setattr__(self, "identity", e)
        object.__setattr__(self, "_inverses", tuple(row.index(e) for row in t))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self._inverses[a]

    def check(self) -> None:
        """Raise InvalidGroupTable unless the law is associative; with the
        identity and right inverses found at construction, that makes a
        finite group."""
        t = self.table
        for row in t:  # row a: (ab)c is t[ab][c], a(bc) is row[t[b][c]]
            for ab, tb in zip(row, t):
                if t[ab] != tuple(map(row.__getitem__, tb)):
                    raise InvalidGroupTable("associativity fails")

    def elements(self) -> range:
        return range(self.order)

    @staticmethod
    def from_json(obj: dict) -> "FiniteGroup":
        rows = obj["table"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise InvalidGroupTable("a table is a list of rows, each a list")
        gamma = FiniteGroup(tuple(tuple(int_from_json(x) for x in r) for r in rows))
        gamma.check()
        return gamma


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


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


def subquotient_module(module: GammaModule, data: SubquotientData) -> GammaModule:
    """A subquotient of the ambient of ``module`` with the action it inherits:
    M_g writes the moved generators, data.gens @ M_g, in class coordinates."""
    actions = []
    for act in module.actions:
        c = data.class_coords(data.gens @ act)
        if c is None:
            raise InvalidAction("subquotient is not stable under the action")
        actions.append(c)
    return GammaModule(module.gamma, data.group, tuple(actions))


def equivariant_kernel(f: GammaHom) -> tuple[GammaModule, GammaHom]:
    data = homology_at(None, f.hom)
    km = subquotient_module(f.source, data)
    return km, GammaHom(km, f.source, data.gens)


def equivariant_cokernel(f: GammaHom) -> tuple[GammaModule, GammaHom]:
    c, proj = cokernel(f.hom)
    cm = GammaModule(f.target.gamma, c, f.target.actions)
    return cm, GammaHom(f.target, cm, proj.matrix)


Word = tuple[tuple[int, int], ...]  # letters (j, e): generator S[j] to the power e = +-1


def presentation(gamma: FiniteGroup) -> tuple[tuple[int, ...], tuple[Word, ...]]:
    """Generators S and relators R of Gamma, read off its Cayley graph.

    Each generator, picked greedily, makes the generated subgroup largest,
    the smallest label winning ties; S is kept in label order.  The
    breadth-first tree of the right Cayley graph g -> g s gives each element
    a word w(g), and each non-tree edge (g, s) the relator w(g) s w(gs)^-1,
    so |R| = q (|S| - 1) + 1.  They generate ker(F(S) -> Gamma) (Schreier).
    The greedy steps count subgroups as plain sets; the words are built
    once, for S.
    """
    e = gamma.identity

    def closure(gens: list[int]) -> set[int]:
        seen, order = {e}, [e]
        for g in order:  # grows while it is walked
            row = gamma.table[g]
            for s in gens:
                h = row[s]
                if h not in seen:
                    seen.add(h)
                    order.append(h)
        return seen

    gens: list[int] = []
    while len(sub := closure(gens)) < gamma.order:
        best = min((-len(closure(gens + [x])), x) for x in gamma.elements() if x not in sub)
        gens = sorted(gens + [best[1]])
    words, order = {e: ()}, [e]
    for g in order:  # breadth first, as in closure
        for j, s in enumerate(gens):
            h = gamma.mul(g, s)
            if h not in words:
                words[h] = words[g] + ((j, 1),)
                order.append(h)
    relators = tuple(
        words[g] + ((j, 1),) + tuple((i, -x) for i, x in reversed(words[gamma.mul(g, s)]))
        for g in words for j, s in enumerate(gens)
        if words[gamma.mul(g, s)] != words[g] + ((j, 1),)
    )
    return tuple(gens), relators


def fox_derivatives(gamma: FiniteGroup, gens: Sequence[int], word: Word) -> list[list[int]]:
    """Row j holds the coefficients over Gamma of the left Fox derivative
    d word / d S[j], with d(uv)/ds = du/ds + u dv/ds: a letter s after the
    prefix p adds p, and a letter s^-1 adds -p s^-1."""
    inverses = [gamma.inverse(s) for s in gens]
    out = [[0] * gamma.order for _ in gens]
    p = gamma.identity
    for j, x in word:
        if x > 0:
            out[j][p] += 1
            p = gamma.mul(p, gens[j])
        else:
            p = gamma.mul(p, inverses[j])
            out[j][p] -= 1
    return out


def _ring_blocks(module: GammaModule, rows: int, cols: int, entries) -> IntMatrix:
    """The rows x cols matrix of n x n blocks whose block (a, b) is the
    element of Z[Gamma] acting on M: sum c M_g over the entries (a, b, g, c)."""
    n = module.group.ambient_rank
    support = [[(i, j, x) for i, row in enumerate(m.data) for j, x in enumerate(row) if x]
               for m in module.actions]
    out = [[0] * (n * cols) for _ in range(n * rows)]
    for a, b, g, c in entries:
        for i, j, x in support[g]:
            out[n * a + i][n * b + j] += c * x
    return IntMatrix(tuple(map(tuple, out)), n * cols)


def _spanning_fox(gamma: FiniteGroup, gens: Sequence[int],
                  relators: Sequence[Word]) -> dict[int, list[list[int]]]:
    """The left Fox derivatives of a set R' of ``presentation`` relators whose
    Gamma-translates already span ker(Z[Gamma]^S -> Z[Gamma]), keyed by index.

    That kernel is the cycle lattice of the Cayley graph, free on the non-tree
    edges: relator w(g) s w(gs)^-1, whose tree words have positive letters
    only, has coordinate 1 at its edge (g, s), its last positive letter, and 0
    at every other.  The relators are walked in order, and one is kept when
    its edge is not yet spanned; a kept relator's q translates are queued, and
    an edge is spanned once a queued translate has coefficient +-1 there and
    only spanned edges besides.  Every edge ends spanned, so the resolution
    Z[Gamma]^R' -> Z[Gamma]^S -> Z[Gamma] -> Z stays exact at Z[Gamma]^S.
    """
    # edge[j][g]: the index of the relator of the non-tree edge (g, S[j]), None on the tree
    edge: list[list[int | None]] = [[None] * gamma.order for _ in gens]
    for r, word in enumerate(relators):
        *prefix, last = (j for j, x in word if x > 0)
        g = gamma.identity
        for j in prefix:
            g = gamma.table[g][gens[j]]
        edge[last][g] = r
    kept: dict[int, list[list[int]]] = {}
    spanned: set[int] = set()
    queued: list[dict[int, int]] = []  # per translate: unspanned edge -> coefficient
    watchers: list[list[int]] = [[] for _ in relators]  # per edge: translates with it unspanned
    for r, word in enumerate(relators):
        if r in spanned:
            continue
        fox = kept[r] = fox_derivatives(gamma, gens, word)
        support = [(edge[j], x, c) for j, dj in enumerate(fox) for x, c in enumerate(dj) if c]
        todo = []
        for row in gamma.table:  # the translate by h, for row h: x -> h x
            t, coords = len(queued), {}
            for at, x, c in support:
                f = at[row[x]]
                if f is not None and f not in spanned:
                    coords[f] = c
                    watchers[f].append(t)
            queued.append(coords)
            todo.append(t)
        while todo:
            coords = queued[todo.pop()]
            if len(coords) == 1 and abs(*coords.values()) == 1:
                (f,) = coords
                spanned.add(f)
                for t in watchers[f]:
                    del queued[t][f]
                    if len(queued[t]) == 1:
                        todo.append(t)
    return kept


def _cochain_map(module: GammaModule, i: int, gens: Sequence[int],
                 fox: Sequence[list[list[int]]]) -> AbHom:
    """``presentation_differential`` from generators S and the Fox rows of
    the relators it runs on."""
    gamma, group, q = module.gamma, module.group, module.gamma.order
    if i == 0:
        entries = [(0, j, g, c) for j, s in enumerate(gens)
                   for g, c in ((s, 1), (gamma.identity, -1))]
        return AbHom(group, power(group, len(gens)), _ring_blocks(module, 1, len(gens), entries))
    if i == 1:
        entries = [(j, r, g, c) for r, d in enumerate(fox) for j, dj in enumerate(d)
                   for g, c in enumerate(dj) if c]
        d1 = _ring_blocks(module, len(gens), len(fox), entries)
        return AbHom(power(group, len(gens)), power(group, len(fox)), d1)
    inv = [gamma.inverse(g) for g in gamma.elements()]  # row (r, g) of d2: g . d r / d s
    d2 = tuple(tuple(dj[gamma.mul(inv[g], x)] for dj in d for x in gamma.elements())
               for d in fox for g in gamma.elements())
    k = kernel_basis(IntMatrix(d2, q * len(gens)))
    entries = [(a // q, b, a % q, c) for b, kr in enumerate(k.data) for a, c in enumerate(kr) if c]
    z2 = _ring_blocks(module, len(fox), k.rows, entries)
    return AbHom(power(group, len(fox)), power(group, k.rows), z2)


def _resolution(gamma: FiniteGroup, i: int) -> tuple[tuple[int, ...], list[list[list[int]]]]:
    """Generators S and, from degree 1 on, the Fox rows of the relators R'."""
    gens, relators = presentation(gamma)
    return gens, (list(_spanning_fox(gamma, gens, relators).values()) if i else [])


def presentation_differential(module: GammaModule, i: int) -> AbHom:
    """The degree-i map of Hom_Gamma(P, M), P the resolution
    Z[Gamma]^R' -> Z[Gamma]^S -> Z[Gamma] -> Z of ``presentation`` on the
    relators R' of ``_spanning_fox``.

    d0 : M -> M^S has the block M_s - M_e (s - 1 on M) at s, and d1 : M^S -> M^R'
    the block d r / d s at (s, r).  Degree 2 is the cocycle test z2 : M^R' -> M^K,
    for K the Hermite basis of the lattice ker d2, whose row (r, g) holds the
    coefficients of g . d r / d s; its block (r, k) is sum_g K[k][(r, g)] M_g.
    """
    return _cochain_map(module, i, *_resolution(module.gamma, i))


def group_cohomology(module: GammaModule, i: int) -> FgAbelianGroup:
    """H^i(Gamma, M) for i in {0, 1, 2}, from the Fox-derivative resolution
    of ``presentation_differential`` (Brown, Cohomology of Groups, GTM 87,
    II.5; Lyndon, Ann. of Math. 52, 1950): H^0 = ker d0, H^1 = ker d1 / im d0
    and H^2 = ker z2 / im d1, where z2 tests that a 2-cochain vanishes on
    ker d2.  R' maps onto the same lattice ker(Z[Gamma]^S -> Z[Gamma]) as all
    of R, so the resolution is still exact at Z[Gamma]^S: H^0 and H^1 are the
    same subgroups of M and M^S as with R, and H^2 is isomorphic.  S, R' and
    their Fox rows are built once per call."""
    if i not in (0, 1, 2):
        raise ValueError(f"unsupported cohomology degree {i}")
    gens, fox = _resolution(module.gamma, i)
    d_in = _cochain_map(module, i - 1, gens, fox) if i > 0 else None
    return homology_at(d_in, _cochain_map(module, i, gens, fox)).group
