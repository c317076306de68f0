"""Independent oracles and random-input builders shared by the tests,
and the finite groups, Gamma-modules and chain maps that only tests build."""

from __future__ import annotations

import itertools
import random
import re
from math import gcd, prod
from typing import Iterable, Optional, Sequence

from redinv.intmat import (
    MAX_INPUT_DIGITS, DimensionMismatch, IntMatrix, identity, kernel_basis, mat, member_coords,
    vstack, zeros)
from redinv.abgrp import (
    AbHom, ExactSequence, FgAbelianGroup, cokernel, direct_sum, homology_at, kernel)
from redinv.gammamod import FiniteGroup, GammaModule, cyclic_group
from redinv.homcx import ChainMap, two_term_complex
from redinv.rootdata import InvalidDatum, ReductiveDatum, cartan_matrix, from_catalog, pairing_map


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination, independent
    of every normal-form routine (``redinv`` has no determinant of its own)."""
    if m.rows != m.cols:
        raise DimensionMismatch(f"determinant of {m.shape}")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntMatrix) -> bool:
    return m.rows == m.cols and abs(det(m)) == 1


def gcd_of_minors_invariants(m: IntMatrix) -> list[int]:
    """Invariant factors d_k = g_k / g_{k-1}, g_k = gcd of all k x k minors.

    Brute-force and independent of any normal-form code: each minor is a
    Bareiss ``det``.
    """
    out = []
    g_prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                g = gcd(g, det(mat([[m[r, c] for c in cols] for r in rows], k)))
        if g == 0:
            break
        out.append(g // g_prev)
        g_prev = g
    return out


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


def trivial_module(gamma: FiniteGroup, group: FgAbelianGroup) -> GammaModule:
    ide = identity(group.ambient_rank)
    return GammaModule(gamma, group, tuple(ide for _ in gamma.elements()))


def sign_module() -> GammaModule:
    """Z with the order-2 group acting by negation."""
    return GammaModule(
        cyclic_group(2), FgAbelianGroup.free(1), (identity(1), mat([[-1]]))
    )


def sl_to_pgl_induced_map(n: int) -> ChainMap:
    """pi1D(PGL(n)) -> pi1D(SL(n)) for the isogeny SL(n) -> PGL(n)."""
    sl = from_catalog(f"SL({n})")
    pgl = from_catalog(f"PGL({n})")
    return induced_map(pgl, sl, cartan_matrix("A", n - 1), identity(n - 1))


def induced_map(
    d2: ReductiveDatum,
    d1: ReductiveDatum,
    char_pullback: IntMatrix,
    coroot_matrix: IntMatrix,
) -> ChainMap:
    """The chain map pi1D(d2) -> pi1D(d1) of a morphism d1 -> d2.

    char_pullback maps X(d2) to X(d1); coroot_matrix expresses each
    simple coroot of d1 in the simple coroots of d2 (one row per coroot
    of d1).  Compatibility F @ beta_1 = beta_2 @ N^T is required.
    """
    c2 = two_term_complex(pairing_map(d2))
    c1 = two_term_complex(pairing_map(d1))
    b1 = pairing_map(d1).matrix
    b2 = pairing_map(d2).matrix
    f0 = coroot_matrix.transpose()
    if (char_pullback @ b1).data != (b2 @ f0).data:
        raise InvalidDatum("char pullback and coroot matrix are incompatible")
    u = ChainMap(c2, c1, {-1: char_pullback, 0: f0})
    u.check()
    return u


def in_row_lattice(a: IntMatrix, vecs: IntMatrix) -> bool:
    """Whether every row of vecs is an integer combination of the rows of a.

    The rows of vstack(a, vecs) span a lattice containing that of a; the
    two are equal iff they have the same rank and the same index in their
    common saturation, i.e. the same number of invariant factors with the
    same product.  Read off the gcd of minors, with no normal-form code.
    """
    before = gcd_of_minors_invariants(a)
    after = gcd_of_minors_invariants(vstack(a, vecs))
    return len(before) == len(after) and prod(before) == prod(after)


def elements(g: FgAbelianGroup) -> set[tuple[int, ...]]:
    """Every element of a finite group, as canonical coordinates: the
    closure of {0} under adding the ambient generators."""
    order = g.order()
    assert order is not None, "an infinite group has no finite list of elements"
    n = g.ambient_rank
    seen = {g.reduce([0] * n)}
    todo = list(seen)
    while todo:
        x = todo.pop()
        for i in range(n):
            y = g.reduce([a + (j == i) for j, a in enumerate(x)])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    assert len(seen) == order
    return seen


def inexact_spots(seq) -> list[str]:
    """Labels of the groups of a finite ExactSequence where the image of the
    incoming map and the kernel of the outgoing one differ, element by element."""
    groups, maps = seq.groups, seq.maps

    def apply(f: AbHom, x: tuple[int, ...]) -> tuple[int, ...]:
        return f.target.reduce((mat([x], f.source.ambient_rank) @ f.matrix).data[0])

    out = []
    for k, g in enumerate(groups):
        image = ({apply(maps[k - 1], x) for x in elements(groups[k - 1])}
                 if k > 0 else {g.reduce([0] * g.ambient_rank)})
        kernel_set = ({y for y in elements(g) if not any(apply(maps[k], y))}
                      if k < len(maps) else elements(g))
        if image != kernel_set:
            out.append(seq.labels[k])
    return out


def six_term_by_maps(u: AbHom, v: AbHom) -> ExactSequence:
    """0 -> ker u -> ker vu -> ker v -> cok u -> cok vu -> cok v -> 0 with
    each group a kernel or cokernel and each map written down on its own,
    with no complex or long exact sequence behind it."""
    vu = u.then(v)
    (k_u, inc_u), (k_vu, inc_vu), (k_v, inc_v) = kernel(u), kernel(vu), kernel(v)
    c_u, c_vu, c_v = cokernel(u)[0], cokernel(vu)[0], cokernel(v)[0]

    def coords_in(sub_gens: IntMatrix, ambient: FgAbelianGroup, vecs: IntMatrix) -> IntMatrix:
        c = member_coords(sub_gens, ambient.relations, vecs)
        assert c is not None, "canonical map escapes its target subgroup"
        return c

    maps = (
        AbHom(k_u, k_vu, coords_in(inc_vu.matrix, u.source, inc_u.matrix)),  # inclusion
        AbHom(k_vu, k_v, coords_in(inc_v.matrix, v.source, inc_vu.matrix @ u.matrix)),  # u
        AbHom(k_v, c_u, inc_v.matrix),  # include into B, then project
        AbHom(c_u, c_vu, v.matrix),  # induced by v
        AbHom(c_vu, c_v, identity(v.target.ambient_rank)),  # identity on C
    )
    return ExactSequence(("ker-u", "ker-vu", "ker-v", "cok-u", "cok-vu", "cok-v"), maps)


def leading_entries(h: IntMatrix) -> tuple[tuple[int, int], ...]:
    """(row, column) of the leading entry of each nonzero row of h."""
    return tuple((i, next(j for j, a in enumerate(r) if a))
                 for i, r in enumerate(h.data) if any(r))


def reference_hermite_basis(m: IntMatrix) -> IntMatrix:
    """The nonzero rows of ``reference_hnf(m)``: the Hermite basis of the
    lattice of the rows of m."""
    h, _ = reference_hnf(m)
    return mat([r for r in h.data if any(r)], m.cols)


def _min_abs_pivot(a: list[list[int]], rows: Sequence[int], col: int) -> Optional[int]:
    """Row index among ``rows`` minimizing |a[i][col]| over nonzero entries."""
    best = None
    best_abs = None
    for i in rows:
        v = abs(a[i][col])
        if v and (best_abs is None or v < best_abs):
            best, best_abs = i, v
    return best


def reference_hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form by a loop that updates m and U separately,
    with which ``intmat.hnf`` must give the same H and U: U is not unique
    for singular or non-square m, so the records of ``matrix hnf`` and
    ``snf`` pin the U of this sequence of row operations.  Its Euclid steps
    take nearest-integer quotients and the reduction above a pivot floor
    ones, as in ``intmat._echelon``; it reduces above each new pivot at
    once, not bottom up after the echelon form as ``_echelon`` does, so it
    checks that reorder independently.

    Returns (H, U) with H = U @ m, U unimodular, H in row-echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot).
    """
    r, c = m.shape
    a = m.to_lists()
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]

    def reduce_by(k: int, rows: Iterable[int], col: int, nearest: bool) -> None:
        """Subtract from each row i != k of ``rows`` the multiple of row k
        that a[i][col] / a[k][col] rounds to, to the nearest integer or
        down, touching only the nonzero entries of row k in a and in u.
        The support of row k is found at the first nonzero multiple, and
        not at all without one."""
        p = a[k][col]
        support = None
        for i in rows:
            q = (2 * a[i][col] + p) // (2 * p) if nearest else a[i][col] // p
            if not q or i == k:
                continue
            if support is None:
                support = ([(j, x) for j, x in enumerate(a[k]) if x],
                           [(j, x) for j, x in enumerate(u[k]) if x])
            ai, ui = a[i], u[i]
            for j, x in support[0]:
                ai[j] -= q * x
            for j, x in support[1]:
                ui[j] -= q * x

    pr = 0
    for col in range(c):
        if pr >= r:
            break
        while True:
            live = [i for i in range(pr, r) if a[i][col] != 0]
            if len(live) <= 1:
                break
            reduce_by(_min_abs_pivot(a, live, col), live, col, True)
        live = [i for i in range(pr, r) if a[i][col] != 0]
        if not live:
            continue
        i0 = live[0]
        if i0 != pr:
            a[pr], a[i0] = a[i0], a[pr]
            u[pr], u[i0] = u[i0], u[pr]
        if a[pr][col] < 0:
            a[pr] = [-x for x in a[pr]]
            u[pr] = [-x for x in u[pr]]
        reduce_by(pr, range(pr), col, False)
        pr += 1
    return mat(a, c), mat(u, r)


def bareiss_is_finite_cartan(c: IntMatrix) -> bool:
    """Diagonal 2, off-diagonal <= 0 with symmetric zero pattern, and all
    leading principal minors positive, by dense Bareiss elimination, which
    ``rootdata.is_finite_cartan_matrix`` must agree with."""
    r = c.rows
    if c.cols != r:
        return False
    for i in range(r):
        if c[i, i] != 2:
            return False
        for j in range(r):
            if i != j:
                if c[i, j] > 0:
                    return False
                if (c[i, j] == 0) != (c[j, i] == 0):
                    return False
    # Bareiss elimination without pivoting: its k-th pivot is the k-th
    # leading principal minor, and each division is exact while the
    # previous pivot is nonzero.
    a = c.to_lists()
    prev = 1
    for k in range(r):
        p = a[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, r):
            for j in range(k + 1, r):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return True


def _unit(n: int, *signed: int) -> tuple[int, ...]:
    """sum of sign(k) e_|k| in R^n, for 1-based indices k."""
    v = [0] * n
    for k in signed:
        v[abs(k) - 1] += 1 if k > 0 else -1
    return tuple(v)


def bourbaki_simple_roots(kind: str, rank: int) -> list[tuple[int, ...]]:
    """Simple roots alpha_1, ..., alpha_n in the coordinates of Bourbaki,
    Lie Groups and Lie Algebras IV-VI, Plates I-IX.  E and F4 are scaled
    by 2 so their half-integer roots stay integral; G2 lists its long root
    first, the reverse of Plate IX."""
    n = rank
    if kind == "A":
        return [_unit(n + 1, i, -(i + 1)) for i in range(1, n + 1)]
    chain = [_unit(n, i, -(i + 1)) for i in range(1, n)]
    if kind == "B":
        return chain + [_unit(n, n)]
    if kind == "C":
        return chain + [tuple(2 * x for x in _unit(n, n))]
    if kind == "D":
        return chain + [_unit(n, n - 1, n)]
    if kind in ("E6", "E7", "E8"):
        # 2 alpha_1 = e1 + e8 - (e2 + ... + e7), alpha_2 = e1 + e2,
        # alpha_i = e_{i-1} - e_{i-2} for i >= 3; E6 and E7 take the first ones
        e8 = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)]
        e8 += [tuple(2 * x for x in _unit(8, i - 1, -(i - 2))) for i in range(3, 9)]
        return e8[: int(kind[1])]
    if kind == "F4":
        # e2 - e3, e3 - e4, e4 and 2 alpha_4 = e1 - e2 - e3 - e4
        integral = [_unit(4, 2, -3), _unit(4, 3, -4), _unit(4, 4)]
        return [tuple(2 * x for x in v) for v in integral] + [(1, -1, -1, -1)]
    if kind == "G2":
        return [(-2, 1, 1), (1, -1, 0)]
    raise ValueError(f"no plate for type {kind}")


def root_cartan_matrix(kind: str, rank: int) -> IntMatrix:
    """C[i][j] = 2 (alpha_i . alpha_j) / (alpha_j . alpha_j) from the
    explicit simple roots of ``bourbaki_simple_roots``."""
    roots = bourbaki_simple_roots(kind, rank)
    rows = []
    for a in roots:
        row = []
        for b in roots:
            num, den = 2 * sum(x * y for x, y in zip(a, b)), sum(y * y for y in b)
            assert num % den == 0, (kind, rank)
            row.append(num // den)
        rows.append(row)
    return mat(rows, len(roots))


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return mat(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols,
    )


def with_dependent_column(a: IntMatrix, k: int) -> IntMatrix:
    """a with a column inserted at k: the sum of (j + 1) times its column j,
    so the rank stays that of a."""
    return mat([r[:k] + (sum((j + 1) * x for j, x in enumerate(r)),) + r[k:] for r in a.data],
               a.cols + 1)


def lower_bidiagonal(n: int, a: int) -> IntMatrix:
    """The unimodular n x n matrix with 1 on the diagonal and a below it; its
    inverse has the entries a^(i - j) on and below the diagonal."""
    return mat([[1 if i == j else a if i == j + 1 else 0 for j in range(n)] for i in range(n)], n)


def random_unimodular(rng: random.Random, n: int, bound: int = 2) -> IntMatrix:
    """L @ R @ P: unit lower and unit upper triangular factors with entries
    in [-bound, bound] below and above the diagonal, and a signed
    permutation P, so the determinant is +-1."""
    lower = [[rng.randint(-bound, bound) if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randint(-bound, bound) if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    perm = rng.sample(range(n), n)
    signed = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    return mat(lower, n) @ mat(upper, n) @ mat(signed, n)


def random_group(rng: random.Random, max_rank: int, max_torsion: int) -> FgAbelianGroup:
    n = rng.randint(0, max_rank)
    rels = []
    for i in range(n):
        if rng.random() < 0.4:
            row = [0] * n
            row[i] = rng.randint(0, max_torsion)
            rels.append(row)
    return FgAbelianGroup(n, mat(rels, n))


def random_hom(rng: random.Random, src: FgAbelianGroup, tgt: FgAbelianGroup,
               bound: int = 5, tries: int = 80) -> AbHom:
    """A well-defined hom found by rejection sampling, falling back to zero."""
    for _ in range(tries):
        h = AbHom(src, tgt, random_matrix(rng, src.ambient_rank, tgt.ambient_rank, bound))
        if h.is_well_defined():
            return h
    return AbHom(src, tgt, zeros(src.ambient_rank, tgt.ambient_rank))


def random_diagonal_group(rng: random.Random, max_rank: int, max_torsion: int) -> FgAbelianGroup:
    """Group with diagonal relations, for constructive well-defined homs."""
    n = rng.randint(0, max_rank)
    rels = []
    diag = []
    for i in range(n):
        d = rng.choice([0, 0, 2, 3, 4, max_torsion])
        diag.append(d)
        if d:
            row = [0] * n
            row[i] = d
            rels.append(row)
    g = FgAbelianGroup(n, mat(rels, n))
    return g, diag


def constructive_hom(rng: random.Random, src, src_diag, tgt, tgt_diag,
                     bound: int = 5) -> AbHom:
    """Well-defined by construction: entry (i, j) is a multiple of
    d_j / gcd(d_j, e_i) so the relation e_i * row_i dies in the target."""
    rows = []
    for i in range(src.ambient_rank):
        e = src_diag[i]
        row = []
        for j in range(tgt.ambient_rank):
            d = tgt_diag[j]
            if e == 0:
                step = 1
            elif d == 0:
                step = 0  # free target coordinate kills nothing; need e*m = 0
            else:
                step = d // gcd(d, e)
            if step == 0:
                row.append(0)
            else:
                row.append(step * rng.randint(-bound, bound))
        rows.append(row)
    return AbHom(src, tgt, mat(rows, tgt.ambient_rank))


def power(group: FgAbelianGroup, k: int) -> FgAbelianGroup:
    """The direct sum of k copies of group."""
    return direct_sum(*[group] * k)


def full_bar_differential(module, i: int) -> AbHom:
    """Degree-i differential of the full inhomogeneous bar complex.

    One copy of M per i-tuple of group elements, the identity included:
    q^i copies.  Written straight from the definition by a scan over every
    (source tuple, target tuple) pair, independent of the normalized
    complex below and of the Cayley-graph resolution in ``gammamod``.
    """
    gamma = module.gamma
    q = gamma.order
    n = module.group.ambient_rank
    tgt_tuples = list(itertools.product(range(q), repeat=i + 1))
    rows = []
    for t in itertools.product(range(q), repeat=i):
        for k in range(n):
            row = [0] * (n * len(tgt_tuples))
            # basis cochain: value e_k at tuple t, zero elsewhere
            for b, s in enumerate(tgt_tuples):
                base = n * b
                # first face: g1 . c(g2..g_{i+1})
                if s[1:] == t:
                    for a, x in enumerate(module.actions[s[0]].row(k)):
                        row[base + a] += x
                # middle faces: (-1)^j c(.., g_j g_{j+1}, ..)
                for j in range(1, i + 1):
                    if s[: j - 1] + (gamma.mul(s[j - 1], s[j]),) + s[j + 1:] == t:
                        row[base + k] += -1 if j % 2 else 1
                # last face: (-1)^{i+1} c(g1..g_i)
                if s[:i] == t:
                    row[base + k] += -1 if (i + 1) % 2 else 1
            rows.append(row)
    src = power(module.group, q ** i)
    tgt = power(module.group, q ** (i + 1))
    return AbHom(src, tgt, mat(rows, tgt.ambient_rank))


def cochain_group(module, i: int) -> FgAbelianGroup:
    """Normalized i-cochains as a plain group: one copy of M per i-tuple
    of non-identity elements, so (q - 1)^i copies."""
    return power(module.group, (module.gamma.order - 1) ** i)


def bar_differential(module, i: int) -> AbHom:
    """The degree-i differential of the normalized inhomogeneous bar complex.

    Normalized cochains vanish on every tuple with an identity entry, so
    they live on tuples of non-identity elements; the complex computes the
    same cohomology as the full one (Brown, Cohomology of Groups, III.1).
    Each target tuple s = (g1, ..., g_{i+1}) has i + 2 faces, and each
    face adds one n x n block to the rows of its source tuple in the
    columns of s.  A middle face whose merged product is the identity
    falls on a cochain that vanishes, and is dropped.  Independent of the
    Cayley-graph resolution in ``gammamod``, and faster than the full one.
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


def full_bar_cohomology(module, i: int) -> FgAbelianGroup:
    """H^i(Gamma, M) of the full bar complex, for i >= 0."""
    d_in = full_bar_differential(module, i - 1) if i > 0 else None
    return homology_at(d_in, full_bar_differential(module, i)).group


def normalized_bar_cohomology(module, i: int) -> FgAbelianGroup:
    """H^i(Gamma, M) of the normalized bar complex, for i >= 0."""
    d_in = bar_differential(module, i - 1) if i > 0 else None
    return homology_at(d_in, bar_differential(module, i)).group


def cech_face(i: int, k: int) -> list[list[int]]:
    """The face map d_k: X x G^{i+1} -> X x G^i (0 <= k <= i + 1) as, for
    each slot of the target, the slots of the source whose product it is;
    slot 0 is the point x of X and slot s >= 1 the factor g_s.  d_0 is the
    action, (x g_1, g_2, .., g_{i+1}), d_k for 1 <= k <= i multiplies
    g_k g_{k+1}, and d_{i+1} drops g_{i+1}."""
    slots = [[s] for s in range(i + 2)]
    return slots[:i + 1] if k == i + 1 else slots[:k] + [[k, k + 1]] + slots[k + 2:]


def _cech_offset(nx: int, ng: int, s: int) -> int:
    return nx + (s - 1) * ng if s else 0


def cech_face_pullback(nx: int, ng: int, phi: list[list[int]], i: int, k: int) -> list[list[int]]:
    """d_k^*: F(X) (+) F(G)^i -> F(X) (+) F(G)^{i+1} as plain rows, read off
    ``cech_face``: a character of G pulls back along a product of factors
    to itself on each, and a unit a of X along x g_1 to a on x and phi a
    on g_1 (Rosenlicht)."""
    rows = [[0] * (nx + (i + 1) * ng) for _ in range(nx + i * ng)]
    for t, product in enumerate(cech_face(i, k)):
        width = ng if t else nx
        for s in product:
            for r in range(width):
                for c in range(ng if s else nx):
                    x = phi[r][c] if t == 0 and s else int(r == c)
                    rows[_cech_offset(nx, ng, t) + r][_cech_offset(nx, ng, s) + c] += x
    return rows


def cech_delta_from_faces(nx: int, ng: int, phi: list[list[int]], i: int) -> list[list[int]]:
    """delta^i = sum_{k=0}^{i+1} (-1)^k d_k^*, as plain rows."""
    total = [[0] * (nx + (i + 1) * ng) for _ in range(nx + i * ng)]
    for k in range(i + 2):
        for row, face in zip(total, cech_face_pullback(nx, ng, phi, i, k)):
            for c, x in enumerate(face):
                row[c] += (-1) ** k * x
    return total


def cech_lambda_from_formula(nx: int, ng: int, i: int) -> list[list[int]]:
    """lambda_i(a, b_1, ..., b_i) = (a, -b_1, b_3, ..., b_i), as plain rows."""
    rows = [[0] * (nx + (i - 1) * ng) for _ in range(nx + i * ng)]
    for r in range(nx):
        rows[r][r] = 1
    for s, t, sign in [(1, 1, -1)] + [(s, s - 1, 1) for s in range(3, i + 1)]:
        for r in range(ng):
            rows[_cech_offset(nx, ng, s) + r][_cech_offset(nx, ng, t) + r] = sign
    return rows


def _presented_invariants(gens: int, rels: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of Z^gens modulo the rows rels, by gcd of minors."""
    d = gcd_of_minors_invariants(mat(rels, gens))
    return gens - len(d), tuple(x for x in d if x > 1)


def kernel_cokernel_invariants(phi: AbHom) -> tuple[tuple, tuple]:
    """(free rank, torsion) of ker phi and of coker phi, from the gcd of
    minors and ``reference_hnf``, with no kernel or cokernel of ``abgrp``.

    coker phi is Z^b modulo the target relations and the rows of phi.  ker
    phi is K / Rel(source), where K holds the x in Z^a with x phi in
    Rel(target): the first a coordinates of the left kernel of
    [phi; Rel(target)], which is spanned by the rows of U = reference_hnf's
    transform whose rows of H are zero.  Each source relation lies in K and
    is written in the Hermite basis of K by back-substitution on its
    pivots."""
    (a, b), rels = phi.matrix.shape, phi.target.relations
    coker = _presented_invariants(b, rels.to_lists() + phi.matrix.to_lists())
    h, u = reference_hnf(vstack(phi.matrix, rels))
    k = [row[:a] for hrow, row in zip(h.data, u.data) if not any(hrow)]
    basis = reference_hermite_basis(mat(k, a)).to_lists()
    coords = []
    for r in phi.source.relations.to_lists():
        c = []
        for row in basis:
            j = next(j for j, x in enumerate(row) if x)
            q, rem = divmod(r[j], row[j])
            assert rem == 0, "a source relation outside K: phi is not well defined"
            c.append(q)
            r = [x - q * y for x, y in zip(r, row)]
        assert not any(r), "a source relation outside K: phi is not well defined"
        coords.append(c)
    return _presented_invariants(len(basis), coords), coker


# the decimal strings ``intmat.int_from_json`` accepted by regular expression
_DECIMAL = re.compile(f"-?[0-9]{{1,{MAX_INPUT_DIGITS}}}")


def is_json_integer(a: object) -> bool:
    """Whether ``int_from_json`` reads a: a JSON integer that is no boolean,
    or a string matching -?[0-9]+ of at most MAX_INPUT_DIGITS digits."""
    return type(a) is int or isinstance(a, str) and _DECIMAL.fullmatch(a) is not None


def is_associative(gamma: FiniteGroup) -> bool:
    """(ab)c = a(bc) for every triple, q^3 lookups."""
    t = gamma.table
    return all(t[ab][c] == row[t[b][c]]
               for row in t for b, ab in enumerate(row) for c in gamma.elements())


def fox_kernel_basis(gamma: FiniteGroup, fox_rows: Sequence[list[list[int]]]) -> IntMatrix:
    """The Hermite basis of ker d2, by elimination: row (r, g) of d2 is the
    translate g . r of Fox row r, in the coordinates (s, x) of Z[Gamma]^S."""
    q = gamma.order
    width = q * (len(fox_rows[0]) if fox_rows else 0)
    d2 = [[dj[gamma.mul(gamma.inverse(g), x)] for dj in d for x in gamma.elements()]
          for d in fox_rows for g in gamma.elements()]
    return kernel_basis(mat(d2, width))


def greedy_cayley_tree(gamma: FiniteGroup) -> tuple[tuple[int, ...], dict]:
    """Generators and breadth-first Cayley-graph tree by the rule that
    ``gammamod._cayley_tree`` follows, with every candidate walked: each
    generator makes the generated subgroup largest, the smallest label
    winning ties, and S is kept in label order."""
    def walk(gens: list[int]) -> dict:
        tree, order = {gamma.identity: None}, [gamma.identity]
        for g in order:
            for j, s in enumerate(gens):
                h = gamma.mul(g, s)
                if h not in tree:
                    tree[h] = (g, j)
                    order.append(h)
        return tree

    gens: list[int] = []
    while len(tree := walk(gens)) < gamma.order:
        best = min((-len(walk(gens + [x])), x) for x in gamma.elements() if x not in tree)
        gens = sorted(gens + [best[1]])
    return tuple(gens), tree


def dense_fox_row(gamma: FiniteGroup, gens: Sequence[int], tree: dict, g: int,
                  j: int) -> list[list[int]]:
    """The left Fox derivatives of the relator of the non-tree edge (g, S[j])
    as |S| lists of q coefficients: entry [k][h] counts the passes of its
    loop along the edge (h, S[k]), forward minus backward."""
    out = [[0] * gamma.order for _ in gens]
    out[j][g] = 1
    for x, sign in ((g, 1), (gamma.mul(g, gens[j]), -1)):
        while tree[x] is not None:
            x, k = tree[x]
            out[k][x] += sign
    return out


def induced_actions(gamma: FiniteGroup, k: int) -> list[list[list[int]]]:
    """The matrices of Z[Gamma]^k under left translation, as plain lists:
    row j q + x of M_g has its one 1 in column j q + g x."""
    q = gamma.order
    return [[[int(col == j * q + gamma.mul(g, x)) for col in range(k * q)]
             for j in range(k) for x in gamma.elements()] for g in gamma.elements()]
