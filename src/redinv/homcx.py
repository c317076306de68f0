"""Bounded complexes of Gamma-modules.

Complexes store a contiguous degree range; terms outside the range are
zero.  The mapping cone of u: A -> B has C^n = A^{n+1} (+) B^n with
differential d(a, b) = (-d_A a, u(a) + d_B b), and the triangle map
cone -> A[1] is the negative of the canonical projection.

Every long exact sequence here is ``les_of_ses(i, quotient(i))`` of a
levelwise injective chain map i: the truncation sequence of
tau_{<=n-1} c in tau_{<=n} c, and the kernel-cokernel six-term sequence
of a composable pair (u, v) of abelian groups, from [A -u-> B] inside
[A + B -> B + C].
"""

from __future__ import annotations

from .intmat import IntMatrix, block_diag, hstack, identity, member_coords, vstack, zeros
from .abgrp import (
    AbHom,
    Checks,
    ExactSequence,
    FgAbelianGroup,
    IllDefinedHom,
    NotComposable,
    SubquotientData,
    direct_sum,
    exactness,
    homology_at,
)
from .gammamod import (
    FiniteGroup,
    GammaHom,
    GammaModule,
    InvalidAction,
    equivariant_cokernel,
    equivariant_kernel,
    subquotient_module,
    trivial_group,
)
from .value import Value


class InvalidComplex(ValueError):
    """d o d != 0, or mismatched terms."""


def zero_module(gamma: FiniteGroup) -> GammaModule:
    return GammaModule(
        gamma, FgAbelianGroup.trivial(), tuple(zeros(0, 0) for _ in gamma.elements())
    )


def direct_sum_modules(a: GammaModule, b: GammaModule) -> GammaModule:
    return GammaModule(
        a.gamma,
        direct_sum(a.group, b.group),
        tuple(block_diag(ma, mb) for ma, mb in zip(a.actions, b.actions)),
    )


class BoundedComplex(Value):
    """Gamma-modules terms[k] in degrees lo + k, with diffs between them."""

    FIELDS = ("gamma", "lo", "terms", "diffs")
    # H^n of each degree in range, built once; neither compared nor hashed
    _kept: dict

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def __init__(self, gamma: FiniteGroup, lo: int, terms: tuple[GammaModule, ...],
                 diffs: tuple[IntMatrix, ...]) -> None:
        if not terms:
            raise InvalidComplex("a complex needs at least one term")
        if len(diffs) != len(terms) - 1:
            raise InvalidComplex("need one differential per adjacent pair of terms")
        for k, d in enumerate(diffs):
            ends = (terms[k].group.ambient_rank, terms[k + 1].group.ambient_rank)
            if d.shape != ends:
                raise InvalidComplex(f"differential {k} has shape {d.shape}, not {ends}")
        # diffs[k]: terms[k] -> terms[k+1]
        self.__dict__.update(gamma=gamma, lo=lo, terms=terms, diffs=diffs, _kept={})

    def term(self, n: int) -> GammaModule:
        if self.lo <= n <= self.hi:
            return self.terms[n - self.lo]
        return zero_module(self.gamma)

    def diff(self, n: int) -> GammaHom:
        src, tgt = self.term(n), self.term(n + 1)
        if self.lo <= n < self.hi:
            return GammaHom(src, tgt, self.diffs[n - self.lo])
        return GammaHom(src, tgt, zeros(src.group.ambient_rank, tgt.group.ambient_rank))

    def check(self) -> None:
        for n in range(self.lo, self.hi):
            self.diff(n).check()
        for k in range(len(self.diffs) - 1):
            if not self.terms[k + 2].group.contains_rows(self.diffs[k] @ self.diffs[k + 1]):
                raise InvalidComplex(f"d o d != 0 at degree {self.lo + k}")

    def cohomology_data(self, n: int) -> SubquotientData:
        if n < self.lo or n > self.hi:
            trivial = FgAbelianGroup.trivial()
            return homology_at(None, AbHom(trivial, trivial, zeros(0, 0)))
        if n not in self._kept:
            d_in = self.diff(n - 1).hom if n > self.lo else None
            self._kept[n] = homology_at(d_in, self.diff(n).hom)
        return self._kept[n]

    def cohomology(self, n: int) -> GammaModule:
        return subquotient_module(self.term(n), self.cohomology_data(n))

    def is_acyclic(self) -> bool:
        return all(
            self.cohomology_data(n).group.is_trivial()
            for n in range(self.lo, self.hi + 1)
        )


def two_term_complex(d: GammaHom) -> BoundedComplex:
    """The complex [source -> target] in degrees -1, 0."""
    return BoundedComplex(d.source.gamma, -1, (d.source, d.target), (d.matrix,))


def single_term_complex(m: GammaModule, degree: int) -> BoundedComplex:
    return BoundedComplex(m.gamma, degree, (m,), ())


class ChainMap(Value):
    """A map of complexes: one component matrix per degree."""

    # components: degree -> matrix; a missing degree means zero
    FIELDS = ("source", "target", "components")

    def component(self, n: int) -> GammaHom:
        src, tgt = self.source.term(n), self.target.term(n)
        m = self.components.get(n)
        if m is None:
            m = zeros(src.group.ambient_rank, tgt.group.ambient_rank)
        return GammaHom(src, tgt, m)

    def check(self) -> None:
        for n, m in self.components.items():
            ends = (self.source.term(n).group.ambient_rank,
                    self.target.term(n).group.ambient_rank)
            if m.shape != ends:
                raise IllDefinedHom(f"component at degree {n} has shape {m.shape}, not {ends}")
            self.component(n).check()
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for n in range(lo, hi):
            left = self.component(n).matrix @ self.target.diff(n).matrix
            right = self.source.diff(n).matrix @ self.component(n + 1).matrix
            if not self.target.term(n + 1).group.contains_rows(left - right):
                raise IllDefinedHom(f"square at degree {n} does not commute")

    def is_valid(self) -> bool:
        try:
            self.check()
            return True
        except (IllDefinedHom, InvalidAction):
            return False


def identity_chain_map(c: BoundedComplex) -> ChainMap:
    comps = {n: identity(c.term(n).group.ambient_rank) for n in range(c.lo, c.hi + 1)}
    return ChainMap(c, c, comps)


def shift(c: BoundedComplex, k: int) -> BoundedComplex:
    """c[k]^n = c^{n+k}, with differential multiplied by (-1)^k."""
    diffs = tuple(-d for d in c.diffs) if k % 2 else c.diffs
    return BoundedComplex(c.gamma, c.lo - k, c.terms, diffs)


def cone(u: ChainMap) -> BoundedComplex:
    a, b = u.source, u.target
    gamma = a.gamma
    lo = min(a.lo - 1, b.lo)
    hi = max(a.hi - 1, b.hi)
    terms = []
    for n in range(lo, hi + 1):
        terms.append(direct_sum_modules(a.term(n + 1), b.term(n)))
    diffs = []
    for n in range(lo, hi):
        da = a.diff(n + 1).matrix
        db = b.diff(n).matrix
        un = u.component(n + 1).matrix
        diffs.append(vstack(hstack(-da, un), hstack(zeros(db.rows, da.cols), db)))
    return BoundedComplex(gamma, lo, tuple(terms), tuple(diffs))


def cone_triangle(u: ChainMap) -> tuple[BoundedComplex, ChainMap, ChainMap]:
    """(cone, w: B -> cone, v: cone -> A[1]), v = minus the projection."""
    a, b = u.source, u.target
    c = cone(u)
    a1 = shift(a, 1)
    w_comps = {}
    v_comps = {}
    for n in range(c.lo, c.hi + 1):
        ra = a.term(n + 1).group.ambient_rank
        rb = b.term(n).group.ambient_rank
        # inclusion of B^n as the second summand
        w_comps[n] = hstack(zeros(rb, ra), identity(rb))
        v_comps[n] = vstack(-identity(ra), zeros(rb, ra))
    return c, ChainMap(b, c, w_comps), ChainMap(c, a1, v_comps)


def is_quasi_iso(u: ChainMap) -> bool:
    return cone(u).is_acyclic()


def cohomology_isomorphism_check(u: ChainMap) -> bool:
    """True iff H^n(u) is an isomorphism in every degree (direct check)."""
    lo = min(u.source.lo, u.target.lo)
    hi = max(u.source.hi, u.target.hi)
    for n in range(lo, hi + 1):
        f = induced_on_cohomology(u, n)
        if not f.is_isomorphism():
            return False
    return True


def induced_on_cohomology(u: ChainMap, n: int) -> AbHom:
    """The map H^n(source) -> H^n(target) on the subquotient presentations."""
    sdata = u.source.cohomology_data(n)
    tdata = u.target.cohomology_data(n)
    m = tdata.class_coords(sdata.gens @ u.component(n).matrix)
    if m is None:
        raise IllDefinedHom("chain map does not send cocycles to cocycles")
    return AbHom(sdata.group, tdata.group, m)


def truncate(c: BoundedComplex, n: int) -> tuple[BoundedComplex, ChainMap]:
    """The subcomplex ... -> c^{n-1} -> ker d^n -> 0, with its inclusion."""
    if n < c.lo:
        z = single_term_complex(zero_module(c.gamma), c.lo)
        return z, ChainMap(z, c, {})
    if n >= c.hi:
        return c, identity_chain_map(c)
    ker_mod, ker_inc = equivariant_kernel(c.diff(n))
    terms = list(c.terms[: n - c.lo]) + [ker_mod]
    diffs = list(c.diffs[: max(0, n - 1 - c.lo)])
    if n > c.lo:
        # corestrict d^{n-1} through the kernel inclusion
        m = member_coords(ker_inc.matrix, c.term(n).group.relations, c.diff(n - 1).matrix)
        if m is None:
            raise InvalidComplex("d^{n-1} does not land in ker d^n")
        diffs.append(m)
    trunc = BoundedComplex(c.gamma, c.lo, tuple(terms), tuple(diffs))
    comps = {m_deg: identity(c.term(m_deg).group.ambient_rank) for m_deg in range(c.lo, n)}
    comps[n] = ker_inc.matrix
    return trunc, ChainMap(trunc, c, comps)


def truncation_triangle_check(c: BoundedComplex, n: int) -> Checks:
    """Verify the long sequence of tau_{<=n-1} c -> tau_{<=n} c -> Q.

    tau_{<=n} c equals c below degree n, so the inclusion has the
    components of truncate(c, n - 1).  Q should have cohomology H^n(c) in
    degree n and none elsewhere."""
    t_prev, inc_prev = truncate(c, n - 1)
    t_cur, _ = truncate(c, n)
    i = ChainMap(t_prev, t_cur, inc_prev.components)
    q = quotient(i)
    checks = list(les_of_ses(i, q).checks.entries)
    for m in range(q.target.lo, q.target.hi + 1):
        want = c.cohomology(n).group.invariants() if m == n else (0, ())
        checks.append((f"H^{m}(Q)", q.target.cohomology_data(m).group.invariants() == want, None))
    return Checks(tuple(checks))


def levelwise_exact(i: ChainMap, p: ChainMap) -> bool:
    """0 -> A -> B -> C -> 0 exact in every degree."""
    a, b, c = i.source, i.target, p.target
    return all(
        ok
        for n in range(min(a.lo, b.lo, c.lo), max(a.hi, b.hi, c.hi) + 1)
        for _, ok, _ in exactness((i.component(n).hom, p.component(n).hom),
                                  [f"A^{n}", f"B^{n}", f"C^{n}"])
    )


def connecting_map(i: ChainMap, p: ChainMap, n: int) -> AbHom:
    """H^n(C) -> H^{n+1}(A) by the zig-zag lift (deterministic lifts)."""
    a, b, c = i.source, i.target, p.target
    c_data = c.cohomology_data(n)
    a_data = a.cohomology_data(n + 1)
    # lift the cocycles of C^n to ambient vectors of B^n
    lifts = member_coords(p.component(n).matrix, c.term(n).group.relations, c_data.gens)
    if lifts is None:
        raise IllDefinedHom("levelwise surjectivity failed during lifting")
    pulled = member_coords(
        i.component(n + 1).matrix, b.term(n + 1).group.relations,
        lifts @ b.diff(n).matrix,
    )
    if pulled is None:
        raise IllDefinedHom("boundary does not come from the subcomplex")
    m = a_data.class_coords(pulled)
    if m is None:
        raise IllDefinedHom("connecting image is not a cocycle class")
    return AbHom(c_data.group, a_data.group, m)


def quotient(i: ChainMap) -> ChainMap:
    """B -> B / i(A): the projection onto the levelwise cokernel of a
    levelwise injective i: A -> B."""
    b = i.target
    degrees = range(b.lo, b.hi + 1)
    terms = tuple(equivariant_cokernel(i.component(n))[0] for n in degrees)
    q = BoundedComplex(b.gamma, b.lo, terms, b.diffs)
    return ChainMap(b, q, {n: identity(b.term(n).group.ambient_rank) for n in degrees})


def les_of_ses(i: ChainMap, p: ChainMap) -> ExactSequence:
    """The long exact cohomology sequence of 0 -> A -> B -> C -> 0."""
    if not levelwise_exact(i, p):
        raise InvalidComplex("the chain maps are not a levelwise short exact sequence")
    a, b, c = i.source, i.target, p.target
    lo = min(a.lo, b.lo, c.lo)
    labels: list[str] = []
    maps: list[AbHom] = []
    for n in range(lo, max(a.hi, b.hi, c.hi) + 1):
        if n > lo:
            maps.append(connecting_map(i, p, n - 1))
        labels += [f"H^{n}(A)", f"H^{n}(B)", f"H^{n}(C)"]
        maps += [induced_on_cohomology(i, n), induced_on_cohomology(p, n)]
    return ExactSequence(tuple(labels), tuple(maps))


def six_term_sequence(u: AbHom, v: AbHom) -> ExactSequence:
    """The kernel-cokernel exact sequence of the composable pair (u, v),

    0 -> ker u -> ker vu -> ker v -> cok u -> cok vu -> cok v -> 0,

    as the long sequence of [A -u-> B] in M = [A + B -> B + C],
    (a, b) |-> (u a - b, v b), over the trivial group.  H^{-1}(M) = ker vu
    and H^0(M) = cok vu; the quotient is [B -v-> C], and the connecting
    map ker v -> cok u is minus the inclusion."""
    if u.target != v.source:
        raise NotComposable("target(u) != source(v)")
    g1 = trivial_group()
    a, b, c = (GammaModule(g1, x, (identity(x.ambient_rank),))
               for x in (u.source, u.target, v.target))
    ra, rb, rc = (x.group.ambient_rank for x in (a, b, c))
    m = two_term_complex(GammaHom(
        direct_sum_modules(a, b), direct_sum_modules(b, c),
        vstack(hstack(u.matrix, zeros(ra, rc)), hstack(-identity(rb), v.matrix))))
    i = ChainMap(two_term_complex(GammaHom(a, b, u.matrix)), m,
                 {-1: hstack(identity(ra), zeros(ra, rb)),
                  0: hstack(identity(rb), zeros(rb, rc))})
    return les_of_ses(i, quotient(i))
