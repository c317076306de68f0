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

Group cohomology in degrees 0-2 comes from the partial free resolution
P: Z[Gamma]^R' -> Z[Gamma]^S -> Z[Gamma] -> Z read off one breadth-first
tree of the right Cayley graph on generators S (Brown, Cohomology of
Groups, GTM 87, II.5; Lyndon, Ann. of Math. 52, 1950).  Each non-tree edge
closes a loop, a relator, whose left Fox derivatives count its passes
along the edges; R' is a subset of those relators whose Gamma-translates
span the same lattice ker(Z[Gamma]^S -> Z[Gamma]) as all of them, so P is
still exact at Z[Gamma]^S from far fewer relators (R' has 6 of the 17 of
C2 x C2 x C2 and 3 of the 25 of S4).  The cochains are C^0 = M, C^1 = M^S
and C^2 = M^R'.  The peeling that picks R' spans each non-tree edge by one
Gamma-translate of a kept relator, so those translates form a unimodular
triangular Z-basis of the cycle lattice, and back-substitution writes every
other translate u in it: e_u minus that sum is a syzygy, and these
syzygies are a Z-basis of ker(Z[Gamma]^R' -> Z[Gamma]^S) with no
elimination.  The third term of P is free on them, so a 2-cochain is a
cocycle when it vanishes on them.  Every cell of P is stored in one
format, its boundary as a list of triples (a, g, c), c != 0, meaning
c g e_a over the cells e_a of the degree below.  Each degree of
Hom_Gamma(P, M) follows one rule from them: the triple (a, g, c) of cell b
is c M_g placed at (n a, n b), n = rank M, summed by ``intmat.block_sum``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .intmat import IntMatrix, block_sum, identity, int_from_json, mat
from .abgrp import (
    AbHom,
    FgAbelianGroup,
    IllDefinedHom,
    SubquotientData,
    homology_at,
    cokernel,
    direct_sum,
)
from .value import Value


class InvalidGroupTable(ValueError):
    """The multiplication table is not a group law."""


class InvalidAction(ValueError):
    """The action matrices do not define a Gamma-module structure."""


class FiniteGroup(Value):
    """A finite group on the labels 0..q-1, given by its multiplication table."""

    FIELDS = ("table",)
    # Memos, neither compared nor printed.  Found once from the table:
    # _inverses[a] is the b with ab = identity.
    identity: int
    _inverses: tuple[int, ...]
    # the generators and Cayley-graph tree of ``_cayley_tree``, built on first use
    _tree: Optional[tuple[tuple[int, ...], dict]] = None

    @property
    def order(self) -> int:
        return len(self.table)

    def __init__(self, table: tuple[tuple[int, ...], ...]) -> None:
        """Raise InvalidGroupTable unless the table is square over valid
        indices, has an identity and every row contains it (a right
        inverse)."""
        n, t = len(table), table
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
        self.__dict__.update(table=table, identity=e,
                             _inverses=tuple(row.index(e) for row in t))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self._inverses[a]

    def check(self) -> None:
        """Raise InvalidGroupTable unless the law is associative; with the
        identity and right inverses found at construction, that makes a
        finite group.

        Light's test (Clifford and Preston, The Algebraic Theory of
        Semigroups I, 1961) checks (xy)s = x(ys) for all x, y and each
        generator s of ``_cayley_tree``: q^2 |S| lookups, not q^3.  The a
        with (xy)a = x(ya) for all x, y hold the identity and are closed
        under products, and the tree writes every element as a product
        e s_1 ... s_k of generators, so every a passes."""
        t = self.table
        for s in _cayley_tree(self)[0]:
            col = [row[s] for row in t]  # x -> x s
            for row in t:  # row x: (xy)s is col[row[y]], x(ys) is row[col[y]]
                if list(map(col.__getitem__, row)) != list(map(row.__getitem__, col)):
                    raise InvalidGroupTable("associativity fails")

    def elements(self) -> range:
        return range(self.order)

    @staticmethod
    def from_json(obj: dict) -> "FiniteGroup":
        rows = obj["table"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise InvalidGroupTable("a table is a list of rows, each a list")
        gamma = FiniteGroup(tuple(tuple(map(int_from_json, r)) for r in rows))
        gamma.check()
        return gamma


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),))


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


class GammaModule(Value):
    """An abelian group with one action matrix per element of gamma."""

    FIELDS = ("gamma", "group", "actions")

    def __init__(self, gamma: FiniteGroup, group: FgAbelianGroup,
                 actions: tuple[IntMatrix, ...]) -> None:
        if len(actions) != gamma.order:
            raise InvalidAction("one action matrix per group element required")
        n = group.ambient_rank
        for m in actions:
            if m.shape != (n, n):
                raise InvalidAction("action matrices must be square of ambient rank")
        # one action matrix per element, m -> m @ M_g
        self.__dict__.update(gamma=gamma, group=group, actions=actions)

    def check(self) -> None:
        """Raise InvalidAction unless the identity element e acts trivially,
        every action keeps the relations and is invertible, and the
        composition law holds, testing e only for the first.

        M_e = 1 + R with every row of R in the relation lattice L implies
        the rest for e: x @ M_e = x + x @ R lies in L for x in L, and is x
        modulo L, so M_e keeps the relations and is the identity map of the
        group, which is invertible.  M_h @ M_e = M_h + M_h @ R is M_h
        modulo L, and M_e @ M_g = M_g + R @ M_g is M_g modulo L once M_g
        keeps the relations, which the loop has tested before the
        composition law.  So the first failure, and its message, are those
        of testing e too.

        The law M_{gh} = M_h @ M_g is tested for h a generator s of
        ``_cayley_tree`` only, (q - 1) |S| products, which is exact by
        induction on the word length of h: M_{ghs} = M_s @ M_{gh} = M_s @
        M_h @ M_g = M_{hs} @ M_g modulo L, since every M keeps L."""
        e = self.gamma.identity
        m_e = self.actions[e]
        if not m_e.is_identity() and not self.group.contains_rows(
            m_e - identity(self.group.ambient_rank)
        ):
            raise InvalidAction("identity element does not act trivially")
        others = [g for g in self.gamma.elements() if g != e]
        for g in others:
            h = AbHom(self.group, self.group, self.actions[g])
            if not h.is_well_defined():
                raise InvalidAction(f"action of element {g} breaks the relations")
            if not h.is_isomorphism():
                raise InvalidAction(f"action of element {g} is not invertible")
        acts = self.actions
        for s in _cayley_tree(self.gamma)[0]:
            for g in others:
                if not self.group.contains_rows(acts[s] @ acts[g] - acts[self.gamma.mul(g, s)]):
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
    """Z[Gamma]^k with the left-translation action: M_g takes the basis
    vector of (j, x) to that of (j, g x), so its rows are rows of one
    identity matrix, picked through the row of g in the table."""
    q = gamma.order
    ones = identity(k * q).data
    actions = tuple(mat([ones[j * q + y] for j in range(k) for y in row], k * q)
                    for row in gamma.table)
    return GammaModule(gamma, FgAbelianGroup.free(k * q), actions)


class GammaHom(Value):
    """A map of Gamma-modules: one matrix, with the modules as its ends."""

    FIELDS = ("source", "target", "matrix")
    hom: AbHom  # the same map of the underlying groups; neither compared nor printed

    def __init__(self, source: GammaModule, target: GammaModule, matrix: IntMatrix) -> None:
        # AbHom raises DimensionMismatch for a matrix of the wrong shape
        self.__dict__.update(source=source, target=target, matrix=matrix,
                             hom=AbHom(source.group, target.group, matrix))

    def is_equivariant(self) -> bool:
        """M_g @ a - a @ N_g lies in the target's relations for every g; an
        element acting by identity matrices on both sides gives a - a = 0,
        and is skipped."""
        if self.source.gamma != self.target.gamma:
            return False
        a = self.matrix
        return all(
            self.target.group.contains_rows(m @ a - a @ n)
            for m, n in zip(self.source.actions, self.target.actions)
            if not (m.is_identity() and n.is_identity())
        )

    def check(self) -> None:
        if not self.hom.is_well_defined():
            raise IllDefinedHom("matrix does not preserve relation lattices")
        if not self.is_equivariant():
            raise IllDefinedHom("hom does not commute with the group action")


def subquotient_module(module: GammaModule, data: SubquotientData) -> GammaModule:
    """A subquotient of the ambient of ``module`` with the action it inherits:
    M_g writes the moved generators, data.gens @ M_g, in class coordinates.
    An identity matrix moves no generator, and the class coordinates of the
    generators are exactly the identity, so it is taken without a solve."""
    actions = []
    for act in module.actions:
        if act.is_identity():
            actions.append(identity(data.gens.rows))
            continue
        c = data.class_coords(data.gens @ act)
        if c is None:
            raise InvalidAction("subquotient is not stable under the action")
        actions.append(c)
    return GammaModule(module.gamma, data.group, tuple(actions))


def equivariant_kernel(f: GammaHom) -> tuple[GammaModule, GammaHom]:
    """ker f with the action it inherits, and its inclusion."""
    data = homology_at(None, f.hom)
    sub = subquotient_module(f.source, data)
    return sub, GammaHom(sub, f.source, data.gens)


def equivariant_cokernel(f: GammaHom) -> tuple[GammaModule, GammaHom]:
    c, proj = cokernel(f.hom)
    cm = GammaModule(f.target.gamma, c, f.target.actions)
    return cm, GammaHom(f.target, cm, proj.matrix)


def _cayley_tree(gamma: FiniteGroup) -> tuple[tuple[int, ...], dict]:
    """Generators S of Gamma and the breadth-first tree of its right Cayley
    graph g -> g s, as tree[g s] = (g, j) for each tree edge (g, S[j]) and
    tree[e] = None, in the order the walk finds the elements.

    Each generator, picked greedily, makes the generated subgroup largest,
    the smallest label winning ties; S is kept in label order.  The
    candidates are tried in label order, so the first that generates all of
    Gamma wins and the rest are not walked.  The same walk sizes each
    candidate subgroup and, once S generates Gamma, gives the tree.  Gamma
    keeps both, so ``FiniteGroup.check`` and every resolution of Gamma walk
    it once.
    """
    if gamma._tree is not None:
        return gamma._tree

    def walk(gens: list[int]) -> dict:
        tree, order = {gamma.identity: None}, [gamma.identity]
        for g in order:  # grows while it is walked
            row = gamma.table[g]
            for j, s in enumerate(gens):
                h = row[s]
                if h not in tree:
                    tree[h] = (g, j)
                    order.append(h)
        return tree

    gens: list[int] = []
    while len(tree := walk(gens)) < gamma.order:
        best, size = 0, 0
        for x in gamma.elements():
            if x not in tree and (n := len(walk(gens + [x]))) > size:
                best, size = x, n
                if n == gamma.order:
                    break
        gens = sorted(gens + [best])
    gamma.__dict__["_tree"] = tuple(gens), tree
    return gamma._tree


def _fox_row(gamma: FiniteGroup, gens: Sequence[int], tree: dict, g: int,
             j: int) -> list[tuple[int, int, int]]:
    """The left Fox derivatives of the relator of the non-tree edge (g, S[j]):
    the tree path from e to g, the edge, then the tree path from e to g S[j]
    walked back.  A triple (k, h, c) says that the loop passes the edge
    (h, S[k]) c times, forward minus backward (Brown, GTM 87, II.5)."""
    out = {(j, g): 1}
    for x, sign in ((g, 1), (gamma.mul(g, gens[j]), -1)):
        while tree[x] is not None:
            x, k = tree[x]
            out[k, x] = out.get((k, x), 0) + sign
    return [(k, x, c) for (k, x), c in out.items() if c]


def _resolution(gamma: FiniteGroup, i: int) -> list[list[list[tuple[int, int, int]]]]:
    """The cells of P in degrees 1..i+1, one list per degree.  A cell is its
    boundary, the list of triples (a, g, c) with c != 0 that is the sum of
    c g e_a over the cells e_a of the degree below, no (a, g) twice.

    Degree 1 has the cell s - e for each generator s.  Degree 2 has the Fox
    rows of a set R' of relators whose Gamma-translates already span
    ker(Z[Gamma]^S -> Z[Gamma]).  That kernel is the cycle lattice of the
    Cayley graph, free on the q (|S| - 1) + 1 non-tree edges: the relator
    of edge (g, S[j]) has coordinate 1 there and 0 at every other.  The
    relators are walked in breadth-first order, and one is kept when its
    edge is not yet spanned; a kept relator's q translates are queued, and
    an edge is spanned once a queued translate has coefficient +-1 there and
    only spanned edges besides.  Every edge ends spanned, so P stays exact
    at Z[Gamma]^S.

    Degree 3, built only for i = 2, holds syzygies, a Z-basis of the
    relations ker d2 among the translates, so no elimination runs.  The
    translate b_f that spans edge f has +-1 at f and is otherwise supported
    on edges spanned before f, so the b_f are a unimodular triangular
    Z-basis of the cycle lattice.  For each other translate u = h . r, in
    queue order, the syzygy is e_u minus the sum of a_f e_{b_f} with
    u = sum a_f b_f, the a_f read off by back-substitution from the edge
    spanned last down to the first.  Its triple (r, h, c) is the coefficient
    c of the translate h . r of the kept relator r.
    """
    gens, tree = _cayley_tree(gamma)
    out = [[[(0, s, 1), (0, gamma.identity, -1)] for s in gens]]
    if i == 0:
        return out
    q, table = gamma.order, gamma.table
    # edge[j][g]: the index of the relator of the non-tree edge (g, S[j]), None on the tree
    edge: list[list[int | None]] = [[None] * q for _ in gens]
    relators = []
    for g in tree:
        for j, s in enumerate(gens):
            if tree[table[g][s]] != (g, j):
                edge[j][g] = len(relators)
                relators.append((g, j))
    kept: list[list[tuple[int, int, int]]] = []
    spanning: dict[int, int] = {}  # edge -> the translate that spans it, in spanning order
    queued: list[dict[int, int]] = []  # per translate: unspanned edge -> coefficient
    watchers: list[list[int]] = [[] for _ in relators]  # per edge: translates with it unspanned
    for r, (g, j) in enumerate(relators):
        if r in spanning:
            continue
        cell = _fox_row(gamma, gens, tree, g, j)
        kept.append(cell)
        todo = []
        for row in table:  # the translate by h, for row h: x -> h x
            t, coords = len(queued), {}
            for k, x, c in cell:
                f = edge[k][row[x]]
                if f is not None and f not in spanning:
                    coords[f] = c
                    watchers[f].append(t)
            queued.append(coords)
            todo.append(t)
        while todo:
            u = todo.pop()
            coords = queued[u]
            if len(coords) == 1 and abs(*coords.values()) == 1:
                (f,) = coords
                spanning[f] = u
                for t in watchers[f]:
                    del queued[t][f]
                    if len(queued[t]) == 1:
                        todo.append(t)
    out.append(kept)
    if i == 1:
        return out
    rank = {f: k for k, f in enumerate(spanning)}  # the spanning order

    def coordinates(t: int) -> list[tuple[int, int]]:
        """(rank of edge, coefficient) of translate t, h . r for the kept
        relator r = t // q and h = t % q, over the non-tree edges."""
        row = table[t % q]
        return [(rank[f], c) for k, x, c in kept[t // q] if (f := edge[k][row[x]]) is not None]

    basis = []  # per edge, in spanning order: b_f = h . r as (r, h), its +-1 at f, its coordinates
    for k, b in enumerate(spanning.values()):
        vb = coordinates(b)
        basis.append((b // q, b % q, dict(vb)[k], vb))
    spans = set(spanning.values())
    syzygies = []
    for u in range(len(queued)):
        if u in spans:
            continue
        # each b_f enters once, at its own edge, and u is none of them
        syzygy, x = [(u // q, u % q, 1)], [0] * len(spanning)
        for k, c in coordinates(u):
            x[k] = c
        for k in range(len(x) - 1, -1, -1):
            if x[k]:
                r, h, unit, vb = basis[k]
                a = x[k] * unit
                syzygy.append((r, h, -a))
                for e, c in vb:
                    x[e] -= a * c
        syzygies.append(syzygy)
    out.append(syzygies)
    return out


def _cochain_map(module: GammaModule, cells: Sequence[list], i: int) -> AbHom:
    """Degree i of Hom_Gamma(P, M), one copy of M per cell of degree i to one
    per cell of degree i + 1: the triple (a, g, c) of cell b places c M_g
    at (n a, n b)."""
    group, n = module.group, module.group.ambient_rank
    rows, cols = len(cells[i - 1]) if i else 1, len(cells[i])
    blocks = ((n * a, n * b, module.actions[g], c)
              for b, cell in enumerate(cells[i]) for a, g, c in cell)
    return AbHom(direct_sum(*[group] * rows), direct_sum(*[group] * cols),
                 block_sum(n * rows, n * cols, blocks))


def group_cohomology(module: GammaModule, i: int) -> FgAbelianGroup:
    """H^i(Gamma, M) for i in {0, 1, 2}, from the Fox-derivative resolution
    P: Z[Gamma]^K -> Z[Gamma]^R' -> Z[Gamma]^S -> Z[Gamma] -> Z of
    ``_resolution`` (Brown, Cohomology of Groups, GTM 87, II.5; Lyndon, Ann.
    of Math. 52, 1950): H^0 = ker d0, H^1 = ker d1 / im d0 and
    H^2 = ker z2 / im d1.  Here d0 : M -> M^S has the block M_s - M_e at s,
    d1 : M^S -> M^R' the block d r / d s at (s, r), and z2 : M^R' -> M^K
    tests that a 2-cochain vanishes on the syzygies K, a Z-basis of ker d2
    read off the peeling of R' with no elimination.  R' maps onto the same
    lattice ker(Z[Gamma]^S -> Z[Gamma]) as all the relators, so the
    resolution is still exact at Z[Gamma]^S: H^0 and H^1 are the same
    subgroups of M and M^S as with all of them, and H^2 is isomorphic.  The
    cells are built once per call."""
    if i not in (0, 1, 2):
        raise ValueError(f"unsupported cohomology degree {i}")
    cells = _resolution(module.gamma, i)
    d_in = _cochain_map(module, cells, i - 1) if i > 0 else None
    return homology_at(d_in, _cochain_map(module, cells, i)).group
