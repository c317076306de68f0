"""Root data and reductive data.

A root datum lives on X = Z^n with chosen simple roots (vectors in X)
and simple coroots (vectors in the dual lattice, paired with X by the
standard dot product).  The pairing map beta: X -> P sends a character
to its pairings with the simple coroots, written on the basis of P =
Hom(Z Phi-dual, Z) dual to the simple coroots.

A reductive datum adds a finite group acting on X by based
automorphisms: each group element permutes the simple roots, and the
dual (inverse-transpose) action permutes the simple coroots the same
way.

A group spec names a family of the table ``_FAMILIES`` and an argument;
the table gives the least argument, the datum rank it asks for and the
datum of that rank.
"""

from __future__ import annotations

import re
from math import gcd
from typing import Optional

from .intmat import IntMatrix, hermite_basis, identity, image_basis, kernel_basis, mat, unit_pivots
from .abgrp import MAX_RANK as MAX_SPEC_RANK, Checks, FgAbelianGroup
from .gammamod import (
    FiniteGroup,
    GammaHom,
    GammaModule,
    InvalidAction,
    cyclic_group,
    equivariant_cokernel,
    equivariant_kernel,
    trivial_group,
)
from .value import Value


class InvalidDatum(ValueError):
    """The data do not satisfy the root-datum axioms."""


class UnknownGroupSpec(ValueError):
    """The group-spec string does not parse."""


class RootDatum(Value):
    """Simple roots in X = Z^rank and simple coroots in its dual."""

    FIELDS = ("rank", "simple_roots", "simple_coroots")

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def cartan_pairing(self) -> IntMatrix:
        """The matrix <alpha_i, alpha_j-dual>."""
        n = self.rank
        return mat(self.simple_roots, n) @ mat(self.simple_coroots, n).transpose()


def is_finite_cartan_matrix(c: IntMatrix) -> bool:
    """Diagonal 2, off-diagonal <= 0 with symmetric zero pattern, and all
    leading principal minors positive (finite-type criterion).

    Gaussian elimination without pivoting over the nonzero entries of each
    row: pivot p of row k turns each row i below it, with f in column k,
    into p * row i - f * row k, divided by the gcd of its entries.  That
    scales the leading minors containing row i by a positive number, so
    the k-th pivot has the sign of the k-th leading minor over the
    (k-1)-th, and the minors are all positive exactly when the pivots are.
    An updated row is the primitive integer multiple of its row in the
    Schur complement, whose entries are minors of c over one common
    denominator, so no entry outgrows those minors.
    """
    r = c.rows
    if c.cols != r:
        return False
    rows = [{j: a for j, a in enumerate(row) if a} for row in c.data]
    for i, row in enumerate(rows):
        if row.get(i) != 2:
            return False
        for j, a in row.items():
            if j != i and (a > 0 or i not in rows[j]):
                return False
    for k, pivot_row in enumerate(rows):
        p = pivot_row.get(k, 0)
        if p <= 0:
            return False
        tail = [(j, a) for j, a in pivot_row.items() if j > k]
        for row in rows[k + 1:]:
            f = row.pop(k, 0)
            if not f:
                continue
            for j in row:
                row[j] *= p
            for j, a in tail:
                x = row.get(j, 0) - f * a
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
    return True


class ReductiveDatum(Value):
    """A root datum with a finite group acting on X by based automorphisms."""

    FIELDS = ("name", "datum", "gamma", "actions")
    # The pairing map, built on first use and kept here, so that it dies
    # with the datum: its matrix carries the one elimination that the
    # kernel and the cokernel of beta share.  Neither compared nor hashed.
    _kept: dict

    def __init__(self, name: str, datum: RootDatum, gamma: FiniteGroup,
                 actions: tuple[IntMatrix, ...]) -> None:
        # one action matrix per group element, on X
        self.__dict__.update(name=name, datum=datum, gamma=gamma, actions=actions, _kept={})

    @staticmethod
    def untwisted(name: str, datum: RootDatum) -> "ReductiveDatum":
        return ReductiveDatum(name, datum, trivial_group(), (identity(datum.rank),))

    def x_module(self) -> GammaModule:
        return GammaModule(self.gamma, FgAbelianGroup.free(self.datum.rank), self.actions)

    def dual_actions(self) -> tuple[IntMatrix, ...]:
        """The action on X-dual: the inverse transpose of each M_g.  The
        actions form a representation, so the inverse of M_g is M_{g^-1}.
        ``validate`` checks that before it takes the dual, and every datum
        that ``from_catalog`` builds acts trivially or by the powers of one
        permutation matrix."""
        return tuple(self.actions[self.gamma.inverse(g)].transpose()
                     for g in self.gamma.elements())

    def root_permutation(self, g: int) -> Optional[tuple[int, ...]]:
        """The permutation sigma with alpha_i . M_g = alpha_{sigma(i)}, or
        None."""
        m, roots = self.actions[g], self.datum.simple_roots
        # the identity fixes distinct roots of its width; others take the product
        if (m.is_identity() and len(set(roots)) == len(roots)
                and all(len(a) == m.rows for a in roots)):
            return tuple(range(len(roots)))
        try:
            perm = tuple(map(roots.index, (mat(roots, m.rows) @ m).data))
        except ValueError:  # a root of another length, or moved off the roots
            return None
        return perm if sorted(perm) == list(range(len(roots))) else None


def validate(d: ReductiveDatum) -> Checks:
    checks: list[tuple[str, bool, str]] = []
    rd = d.datum
    n, r = rd.rank, rd.semisimple_rank
    ok_len = all(len(a) == n for a in rd.simple_roots) and all(
        len(a) == n for a in rd.simple_coroots
    )
    checks.append(("vector-lengths", ok_len, f"rank {n}"))
    ok_counts = len(rd.simple_roots) == len(rd.simple_coroots)
    checks.append(("root-coroot-count", ok_counts, f"{r} simple roots"))
    if not (ok_len and ok_counts):
        return Checks(tuple(checks))

    c = rd.cartan_pairing()
    ok_diag = all(c[i, i] == 2 for i in range(r))
    checks.append(("pairing-diagonal-two", ok_diag, "<alpha_i, alpha_i-dual> = 2"))
    ok_cartan = is_finite_cartan_matrix(c) if r else True
    checks.append(("finite-cartan-matrix", ok_cartan, "finite-type criterion"))

    # c = roots @ coroots^T with positive leading minors is nonsingular, so
    # its two r x n factors have rank r: only a failed criterion needs ranks
    for name, vecs in (("roots", rd.simple_roots), ("coroots", rd.simple_coroots)):
        independent = ok_cartan or hermite_basis(mat(vecs, n)).rows == r
        checks.append((f"{name}-independent", independent, ""))

    try:
        d.x_module().check()
        checks.append(("action-valid", True, ""))
    except InvalidAction as exc:
        checks.append(("action-valid", False, str(exc)))
        return Checks(tuple(checks))

    duals = d.dual_actions()
    for g in d.gamma.elements():
        perm = d.root_permutation(g)
        if perm is None:
            checks.append((f"action-{g}-permutes-roots", False, ""))
            continue
        checks.append((f"action-{g}-permutes-roots", True, str(perm)))
        ok_co = (perm == tuple(range(r)) and duals[g].is_identity()) or (
            (mat(rd.simple_coroots, n) @ duals[g]).data
            == tuple(rd.simple_coroots[i] for i in perm))
        checks.append((f"action-{g}-permutes-coroots", ok_co, str(perm)))
    return Checks(tuple(checks))


def weight_module(d: ReductiveDatum) -> GammaModule:
    """P = Hom(Z Phi-dual, Z) on the fundamental-weight basis, with the
    permutation action induced by the root permutations."""
    r = d.datum.semisimple_rank
    one, actions = identity(r), []
    for g in d.gamma.elements():
        perm = d.root_permutation(g)
        if perm is None:
            raise InvalidDatum("action does not permute the simple roots")
        actions.append(mat(map(one.row, perm), r))
    return GammaModule(d.gamma, FgAbelianGroup.free(r), tuple(actions))


def pairing_map(d: ReductiveDatum) -> GammaHom:
    """beta: X -> P, chi -> (<chi, alpha_j-dual>)_j; built once per datum,
    so that its matrix keeps one solved state for the kernel and the
    cokernel of beta.  A square beta takes its image basis first, with no
    transform: when it has full rank, its kernel is zero and is read off
    that basis with no carried elimination."""
    beta = d._kept.get("beta")
    if beta is None:
        b = mat(d.datum.simple_coroots, d.datum.rank).transpose()
        beta = d._kept["beta"] = GammaHom(d.x_module(), weight_module(d), b)
        if b.rows == b.cols:
            image_basis(b, beta.target.group.relations)
    return beta


def character_group(d: ReductiveDatum) -> GammaModule:
    """X_0 = ker beta, the character group of the datum."""
    module, _ = equivariant_kernel(pairing_map(d))
    return module


def mu_dual(d: ReductiveDatum) -> GammaModule:
    """mu* = coker beta; the Picard group of the datum."""
    module, _ = equivariant_cokernel(pairing_map(d))
    return module


def pi1(d: ReductiveDatum) -> GammaModule:
    """pi_1 = X-dual / (coroot lattice): the cokernel of Z^r -> X-dual,
    which sends basis vector j to the j-th coroot."""
    n = d.datum.rank
    cocharacters = GammaModule(d.gamma, FgAbelianGroup.free(n), d.dual_actions())
    coroots = GammaHom(weight_module(d), cocharacters, mat(d.datum.simple_coroots, n))
    module, _ = equivariant_cokernel(coroots)
    return module


def saturation(rows: IntMatrix) -> IntMatrix:
    """Basis of the saturation of the row span (double orthogonal complement).
    The Hermite basis of the rows is read first: n rows of rank n in Z^n
    span a lattice of finite index, whose saturation is Z^n, and a basis
    whose pivots are all 1 spans a saturated lattice (Z^n is its span plus
    the coordinates of no pivot), the one it is the Hermite basis of."""
    n = rows.cols
    h = hermite_basis(rows)
    if h.rows == n:
        return identity(n)
    if len(unit_pivots(h)) == h.rows:
        return h
    return kernel_basis(kernel_basis(rows.transpose()).transpose())


def radical_characters(d: ReductiveDatum) -> GammaModule:
    """X_rad = X / saturation(root lattice)."""
    n = d.datum.rank
    grp = FgAbelianGroup(n, saturation(mat(d.datum.simple_roots, n)))
    return GammaModule(d.gamma, grp, d.actions)


# --- catalog constructors -------------------------------------------------

def _links(first: int, last: int) -> list[tuple[int, int, int, int]]:
    """The simple links (i, i + 1, -1, -1) for first <= i < last."""
    return [(i, i + 1, -1, -1) for i in range(first, last)]


# Dynkin type -> (least rank, off-diagonal Cartan entries (i, j, C[i][j],
# C[j][i]) at rank n).  B has its short root last, C its long root last;
# E_n is the chain 0-2-3-...-(n-1) with node 1 attached to node 3.
_CARTAN = {
    "A": (0, lambda n: _links(0, n - 1)),
    "B": (2, lambda n: _links(0, n - 2) + [(n - 2, n - 1, -2, -1)]),
    "C": (2, lambda n: _links(0, n - 2) + [(n - 2, n - 1, -1, -2)]),
    "D": (3, lambda n: _links(0, n - 2) + [(n - 3, n - 1, -1, -1)]),
    **dict.fromkeys(("E6", "E7", "E8"),
                    (6, lambda n: [(0, 2, -1, -1), (1, 3, -1, -1)] + _links(2, n - 1))),
    "F4": (4, lambda _: [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)]),
    "G2": (2, lambda _: [(0, 1, -3, -1)]),
}


def cartan_matrix(kind: str, rank: int) -> IntMatrix:
    """The Cartan matrix C[i][j] = <alpha_i, alpha_j-dual> of a finite type.
    Nodes follow Bourbaki's plates, except that G2 puts its long root first
    (C[0][1] = -3).  E6-E8, F4 and G2 take their rank from the name."""
    kind = kind.upper()
    if kind not in _CARTAN:
        raise InvalidDatum(f"unknown type {kind}")
    least, entries = _CARTAN[kind]
    rank = int(kind[1:] or rank)
    if rank < least:
        raise InvalidDatum(f"type {kind} needs rank >= {least}")
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in entries(rank):
        c[i][j], c[j][i] = cij, cji
    return mat(c, rank)


def simply_connected_datum(kind: str, rank: int) -> RootDatum:
    """X = weight lattice coordinates: roots are the Cartan rows, coroots
    the standard basis."""
    c = cartan_matrix(kind, rank)
    return RootDatum(c.rows, c.data, identity(c.rows).data)


def adjoint_datum(kind: str, rank: int) -> RootDatum:
    """X = root lattice coordinates: roots are the standard basis, coroots
    the Cartan columns."""
    c = cartan_matrix(kind, rank)
    return RootDatum(c.rows, identity(c.rows).data, c.transpose().data)


def torus_datum(n: int) -> RootDatum:
    return RootDatum(n, (), ())


def _chain(n: int) -> list[tuple[int, ...]]:
    """The vectors e_i - e_{i+1} of Z^n, i < n - 1."""
    return [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n))
            for i in range(n - 1)]


def gl_datum(n: int) -> RootDatum:
    """X = Z^n with roots e_i - e_{i+1}; coroots the same vectors in the dual."""
    vecs = tuple(_chain(n))
    return RootDatum(n, vecs, vecs)


def so_even_datum(n: int) -> RootDatum:
    """SO(2n): X = Z^n, alpha_i = e_i - e_{i+1} (i < n), alpha_n = e_{n-1} + e_n."""
    if n < 3:
        raise InvalidDatum("SO(2n) datum needs n >= 3")
    vecs = tuple(_chain(n) + [tuple(1 if j >= n - 2 else 0 for j in range(n))])
    return RootDatum(n, vecs, vecs)


# twist -> (the Dynkin type it acts on, its permutation of the coordinates
# of X).  The flip swaps the two nodes of A2; triality cycles the outer
# nodes 1 -> 3 -> 4 -> 1 of D4 and fixes node 2.
_TWISTS = {
    "flip": (("A", 2), (1, 0)),
    "triality": (("D", 4), (2, 1, 3, 0)),
}


def _twisted(d: ReductiveDatum, twist: str) -> ReductiveDatum:
    """d with Z/k acting by the powers of the twist's permutation of order
    k; d must have the twist's type, and each power must permute its roots."""
    (kind, rank), perm = _TWISTS[twist]
    if d.datum.rank != rank or d.datum.cartan_pairing() != cartan_matrix(kind, rank):
        raise InvalidDatum(f"the {twist} twist needs a rank-{rank} datum of type {kind}{rank}")
    one = identity(rank)
    rho = mat(map(one.row, perm), rank)
    powers = [one]
    while (m := powers[-1] @ rho) != one:
        powers.append(m)
    t = ReductiveDatum(f"{d.name}x{twist}", d.datum, cyclic_group(len(powers)), tuple(powers))
    if any(t.root_permutation(g) is None for g in t.gamma.elements()):
        raise InvalidDatum(f"the {twist} twist does not permute the simple roots of {d.name}")
    return t


_SPEC_RE = re.compile(r"([A-Za-z]+)\(([0-9]{1,9})\)")


def from_catalog(spec: str) -> ReductiveDatum:
    """Parse a group-spec string such as SL(3), PGL(4), Sp(4), SO(8),
    Spin(7), G2, E6sc, E7ad, T(2); an optional suffix names a twist,
    e.g. SL(3)xGamma:flip or Spin(8)xGamma:triality."""
    base = spec
    twist = None
    for sep in ("xGamma:", "xΓ:"):
        if sep in spec:
            base, twist = spec.split(sep, 1)
            break
    d = _parse_base(base)
    if twist is None:
        return d
    if twist not in _TWISTS:
        raise UnknownGroupSpec(f"unknown twist {twist!r}")
    return _twisted(d, twist)


# (head, argument parity or None) -> (least argument, datum rank of the
# argument, datum of that rank)
_FAMILIES = {
    ("SL", None): (2, lambda m: m - 1, lambda n: simply_connected_datum("A", n)),
    ("PGL", None): (2, lambda m: m - 1, lambda n: adjoint_datum("A", n)),
    ("GL", None): (0, lambda m: m, gl_datum),
    ("T", None): (0, lambda m: m, torus_datum),
    ("Sp", 0): (4, lambda m: m // 2, lambda n: simply_connected_datum("C", n)),
    ("SO", 1): (5, lambda m: m // 2, lambda n: adjoint_datum("B", n)),
    ("SO", 0): (6, lambda m: m // 2, so_even_datum),
    ("Spin", 1): (5, lambda m: m // 2, lambda n: simply_connected_datum("B", n)),
    ("Spin", 0): (6, lambda m: m // 2, lambda n: simply_connected_datum("D", n)),
    ("PSO", 0): (6, lambda m: m // 2, lambda n: adjoint_datum("D", n)),
}


def _parse_base(base: str) -> ReductiveDatum:
    m = _SPEC_RE.fullmatch(base)
    if m:
        head, num = m.group(1), int(m.group(2))
        family = _FAMILIES.get((head, num % 2)) or _FAMILIES.get((head, None))
        if family is None:
            raise UnknownGroupSpec(f"no family {head!r} takes the argument {num}")
        least, rank_of, datum = family
        if num < least:
            raise UnknownGroupSpec(f"{base}: {head} needs an argument >= {least}")
        if rank_of(num) > MAX_SPEC_RANK:
            raise UnknownGroupSpec(
                f"{base} asks for datum rank {rank_of(num)}, above {MAX_SPEC_RANK}")
        return ReductiveDatum.untwisted(base, datum(rank_of(num)))
    exc = re.fullmatch(r"(G2|F4|E6|E7|E8)(sc|ad)?", base)
    if exc:
        kind, iso = exc.group(1), exc.group(2)
        if iso == "ad":
            return ReductiveDatum.untwisted(base, adjoint_datum(kind, 0))
        return ReductiveDatum.untwisted(base, simply_connected_datum(kind, 0))
    raise UnknownGroupSpec(f"cannot parse group spec {base!r}")
