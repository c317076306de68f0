import random

import pytest
from hypothesis import given, settings, strategies as st

from redinv.intmat import IntMatrix, hstack, identity, mat, member_coords, vstack, zeros
from redinv.abgrp import AbHom, FgAbelianGroup, IllDefinedHom, direct_sum
from redinv.gammamod import (
    GammaHom,
    GammaModule,
    cyclic_group,
    trivial_group,
)
from redinv import homcx
from redinv.homcx import (
    BoundedComplex,
    ChainMap,
    InvalidComplex,
    cohomology_isomorphism_check,
    cone,
    cone_triangle,
    identity_chain_map,
    induced_on_cohomology,
    is_quasi_iso,
    les_of_ses,
    levelwise_exact,
    quotient,
    shift,
    single_term_complex,
    truncate,
    truncation_triangle_check,
    two_term_complex,
    zero_module,
)

from oracles import constructive_hom, inexact_spots, random_matrix, trivial_module

G1 = trivial_group()


def free_mod(n):
    return trivial_module(G1, FgAbelianGroup.free(n))


def free_complex(m: IntMatrix) -> BoundedComplex:
    """Two-term complex Z^rows -> Z^cols in degrees -1, 0 with trivial action."""
    src, tgt = free_mod(m.rows), free_mod(m.cols)
    d = GammaHom(src, tgt, m)
    return two_term_complex(d)


def free_chain_pair(x: IntMatrix, y: IntMatrix):
    """Chain map (x, y): [x] -> [y]; squares commute by associativity."""
    a = free_complex(x)
    b = free_complex(y)
    return ChainMap(a, b, {-1: x, 0: y})


class TestComplexes:
    def test_two_term_cohomology(self):
        c = free_complex(mat([[2]]))
        assert c.cohomology_data(-1).group.is_trivial()
        assert c.cohomology_data(0).group.invariants() == (0, (2,))

    def test_out_of_range_is_zero(self):
        c = free_complex(mat([[2]]))
        assert c.term(5).group.is_trivial()
        assert c.diff(5).matrix.shape == (0, 0)

    def test_invalid_square(self):
        m1, m2, m3 = free_mod(1), free_mod(1), free_mod(1)
        c = BoundedComplex(G1, 0, (m1, m2, m3), (mat([[1]]), mat([[1]])))
        with pytest.raises(InvalidComplex):
            c.check()

    def test_wrong_shape_differential(self):
        m1, m2 = free_mod(1), free_mod(2)
        with pytest.raises(InvalidComplex):
            BoundedComplex(G1, 0, (m1, m2), (mat([[1]]),))

    def test_three_term(self):
        # Z --(1,0)--> Z^2 --(0,1)^T--> Z is exact except H^2 = Z
        m1, m2, m3 = free_mod(1), free_mod(2), free_mod(1)
        c = BoundedComplex(G1, 0, (m1, m2, m3), (mat([[1, 0]]), mat([[0], [1]])))
        c.check()
        assert c.cohomology_data(0).group.is_trivial()
        assert c.cohomology_data(1).group.is_trivial()
        assert c.cohomology_data(2).group.is_trivial()

    def test_acyclic(self):
        assert free_complex(identity(2)).is_acyclic()
        assert not free_complex(mat([[2]])).is_acyclic()

    def test_cohomology_carries_action(self):
        # swap action on Z^2 --(1,1)^T--> Z (trivial target action)
        c2 = cyclic_group(2)
        src = GammaModule(
            c2, FgAbelianGroup.free(2), (identity(2), mat([[0, 1], [1, 0]]))
        )
        tgt = trivial_module(c2, FgAbelianGroup.free(1))
        d = GammaHom(src, tgt, mat([[1], [1]]))
        c = two_term_complex(d)
        h = c.cohomology(-1)
        h.check()
        assert h.group.invariants() == (1, ())
        # the kernel line (1, -1) is negated by the swap
        assert h.actions[1].data == ((-1,),)


class TestChainMapShape:
    def test_wrong_shape_component(self):
        a = free_complex(mat([[2]]))
        b = free_complex(mat([[2, 0]]))
        u = ChainMap(a, b, {0: mat([[1]])})  # b^0 has rank 2, so 1 x 2 is needed
        with pytest.raises(IllDefinedHom):
            u.check()
        assert not u.is_valid()


class TestShift:
    def test_degrees_move(self):
        c = shift(free_complex(mat([[3]])), -1)
        assert c.lo == 0
        s = shift(c, 1)
        assert s.lo == -1
        assert s.cohomology_data(0).group.invariants() == (0, (3,))

    def test_odd_shift_negates_differential(self):
        c = free_complex(mat([[3]]))
        assert shift(c, 1).diffs[0].data == ((-3,),)
        assert shift(c, 2).diffs[0].data == ((3,),)


class TestCone:
    def test_cone_of_identity_acyclic(self):
        c = free_complex(mat([[2], [3]]))
        assert cone(identity_chain_map(c)).is_acyclic()
        assert is_quasi_iso(identity_chain_map(c))

    def test_cone_of_zero_map(self):
        a = free_complex(mat([[1]]))  # acyclic
        b = free_complex(mat([[2]]))
        u = free_chain_pair(mat([[1]]), mat([[2]]))
        # cone over a quasi-iso-from-acyclic has the cohomology of b
        cn = cone(ChainMap(a, b, {n: u.component(n).matrix for n in (-1, 0)}))
        cn.check()

    def test_triangle_les(self):
        u = free_chain_pair(mat([[2, 0], [0, 3]]), mat([[1], [1]]))
        cn, w, v = cone_triangle(u)
        cn.check()
        w.check()
        v.check()
        rep = les_of_ses(w, v)
        assert rep.checks.passed

    def test_quasi_iso_iff_cohomology_iso(self):
        rng = random.Random(13)
        for _ in range(60):
            x = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 4)
            y = random_matrix(rng, x.cols, rng.randint(1, 3), 4)
            u = free_chain_pair(x, y)
            assert is_quasi_iso(u) == cohomology_isomorphism_check(u)

    def test_multiplication_not_quasi_iso(self):
        c = free_complex(mat([[0]]))
        u = ChainMap(c, c, {n: mat([[2]]) for n in (-1, 0)})
        assert not is_quasi_iso(u)
        assert not cohomology_isomorphism_check(u)


class TestInducedOnCohomology:
    def test_identity_induces_identity(self):
        c = free_complex(mat([[4]]))
        f = induced_on_cohomology(identity_chain_map(c), 0)
        assert f.is_isomorphism()

    def test_composition(self):
        u = free_chain_pair(mat([[2]]), mat([[6]]))
        w = free_chain_pair(mat([[6]]), mat([[6]]))
        uv = ChainMap(u.source, w.target,
                      {n: u.component(n).matrix @ w.component(n).matrix for n in (-1, 0)})
        uv.check()
        f = induced_on_cohomology(u, 0).then(induced_on_cohomology(w, 0))
        g = induced_on_cohomology(uv, 0)
        assert f.source == g.source and f.target == g.target
        assert (f.matrix - g.matrix).is_zero() or all(
            f.target.reduce([a - b for a, b in zip(f.matrix.row(i), g.matrix.row(i))])
            == tuple([0] * f.target.ambient_rank)
            for i in range(f.matrix.rows)
        )


class TestTruncation:
    def _three_term(self):
        m1, m2, m3 = free_mod(1), free_mod(2), free_mod(1)
        return BoundedComplex(G1, 0, (m1, m2, m3), (mat([[2, 0]]), mat([[0], [3]])))

    def test_truncate_middle(self):
        c = self._three_term()
        t, inc = truncate(c, 1)
        t.check()
        inc.check()
        assert t.hi == 1
        # cohomology below the cut agrees with the full complex
        for n in (0, 1):
            assert (
                t.cohomology_data(n).group.invariants()
                == c.cohomology_data(n).group.invariants()
            )

    def test_truncate_above_is_identity(self):
        c = self._three_term()
        t, _ = truncate(c, 5)
        assert t is c

    def test_truncate_below_is_zero(self):
        c = self._three_term()
        t, _ = truncate(c, -3)
        assert all(t.term(n).group.is_trivial() for n in range(-1, 3))

    def test_triangle_check(self):
        c = self._three_term()
        for n in (0, 1, 2):
            rep = truncation_triangle_check(c, n)
            assert rep.passed, (n, rep.failures())

    def test_triangle_check_random(self):
        rng = random.Random(14)
        for _ in range(25):
            x = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 4)
            c = free_complex(x)
            for n in (-1, 0):
                assert truncation_triangle_check(c, n).passed

    def test_triangle_check_catches_a_doubled_kernel_generator(self, monkeypatch):
        # Z -2-> Z -0-> Z: ker d^1 = Z, so H^1 = Z/2; a truncation that keeps
        # 2Z instead still includes levelwise, but its top cohomology is 0
        c = BoundedComplex(G1, 0, (free_mod(1),) * 3, (mat([[2]]), mat([[0]])))
        real_truncate = homcx.truncate

        def doubled(cx, n):
            t, inc = real_truncate(cx, n)
            k = inc.components.get(n)
            if not cx.lo <= n < cx.hi or not k.rows:
                return t, inc
            k = IntMatrix((tuple(2 * e for e in k.row(0)),) + k.data[1:], k.cols)
            diffs = list(t.diffs)
            if n > cx.lo:
                diffs[-1] = member_coords(k, cx.term(n).group.relations, cx.diff(n - 1).matrix)
            t = BoundedComplex(G1, t.lo, t.terms, tuple(diffs))
            return t, ChainMap(t, cx, {**inc.components, n: k})

        assert truncation_triangle_check(c, 1).passed
        monkeypatch.setattr(homcx, "truncate", doubled)
        rep = truncation_triangle_check(c, 1)
        assert rep.failures() == ["H^1(Q)"]


def random_inclusion(rng: random.Random, torsion: int) -> ChainMap:
    """The inclusion of A = [Z^p -x-> A^0] into B = [Z^p + Z^r -> A^0 + Z^s]
    as the first summands, with d_B = (x 0; g h) for random x, g, h, and
    A^0 = Z^q, or Z/torsion + Z^{q-1} when torsion is nonzero."""
    p, q, r, s = (rng.randint(1, 2) for _ in range(4))
    x, g, h = (random_matrix(rng, *shape, 4) for shape in ((p, q), (r, q), (r, s)))
    a0 = FgAbelianGroup(q, mat([[torsion] + [0] * (q - 1)] if torsion else [], q))
    b0 = direct_sum(a0, FgAbelianGroup.free(s))
    a = two_term_complex(GammaHom(free_mod(p), trivial_module(G1, a0), x))
    d_b = vstack(hstack(x, zeros(p, s)), hstack(g, h))
    b = two_term_complex(GammaHom(free_mod(p + r), trivial_module(G1, b0), d_b))
    return ChainMap(a, b, {-1: hstack(identity(p), zeros(p, r)),
                           0: hstack(identity(q), zeros(q, s))})


class TestQuotient:
    @pytest.mark.parametrize("torsion", [0, 4])
    def test_random_inclusions(self, torsion):
        rng = random.Random(16 + torsion)
        for _ in range(30):
            i = random_inclusion(rng, torsion)
            i.check()
            p = quotient(i)
            p.check()
            assert levelwise_exact(i, p)
            assert les_of_ses(i, p).checks.passed

    def test_non_injective_map_raises(self):
        # [Z^2 -x-> Z] -> [Z -1-> Z] by x = (1; 1) in degree -1 is not injective
        i = free_chain_pair(mat([[1], [1]]), mat([[1]]))
        i.check()
        with pytest.raises(InvalidComplex):
            les_of_ses(i, quotient(i))


class TestLongExactSequence:
    def test_each_cohomology_group_is_built_once(self, monkeypatch):
        # a two-term six-term sequence has 6 distinct groups H^n of A, B
        # and C, and reads each of them twice
        runs = []
        real = homcx.homology_at

        def counting(d_in, d_out):
            runs.append(d_out)
            return real(d_in, d_out)
        monkeypatch.setattr(homcx, "homology_at", counting)
        z = FgAbelianGroup.free(1)
        rep = homcx.six_term_sequence(AbHom(z, z, mat([[2]])), AbHom(z, z, mat([[3]])))
        assert len(runs) == 6
        assert rep.checks.passed

    def test_split_ses_connecting_zero(self):
        a = free_complex(mat([[2]]))
        b_m = free_mod(2)
        b = free_complex(mat([[2, 0], [0, 3]]))
        c = free_complex(mat([[3]]))
        i = ChainMap(
            a,
            b,
            {
                -1: mat([[1, 0]]),
                0: mat([[1, 0]]),
            },
        )
        p = ChainMap(
            b,
            c,
            {
                -1: mat([[0], [1]]),
                0: mat([[0], [1]]),
            },
        )
        rep = les_of_ses(i, p)
        assert rep.checks.passed
        # connecting maps of a split sequence vanish
        conn = [m for k, m in enumerate(rep.maps) if k % 3 == 2]
        assert all(m.is_zero() for m in conn)
        # H^0 column: Z/2 -> Z/6 -> Z/3, also onto the levelwise cokernel
        q = quotient(i)
        q.check()
        assert levelwise_exact(i, q)
        for seq in (rep, les_of_ses(i, q)):
            invs = [g.invariants() for g in seq.groups]
            assert invs[3:] == [(0, (2,)), (0, (6,)), (0, (3,))]

    def test_nonsplit_connecting(self):
        # 0 -> [Z --2--> Z] -> [Z -1-> Z] is not levelwise exact; use the
        # cone triangle for a guaranteed levelwise split sequence instead.
        u = free_chain_pair(mat([[2]]), mat([[0]]))
        _, w, v = cone_triangle(u)
        rep = les_of_ses(w, v)
        assert rep.checks.passed

    def test_levelwise_violation_raises(self):
        a = free_complex(mat([[2]]))
        b = free_complex(mat([[2]]))
        i = ChainMap(
            a,
            b,
            {
                -1: mat([[2]]),
                0: mat([[2]]),
            },
        )
        p = ChainMap(
            b,
            single_term_complex(zero_module(G1), 0),
            {},
        )
        with pytest.raises(InvalidComplex):
            les_of_ses(i, p)

    def test_random_cone_triangles(self):
        rng = random.Random(15)
        for _ in range(40):
            x = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), 4)
            y = random_matrix(rng, x.cols, rng.randint(1, 3), 4)
            u = free_chain_pair(x, y)
            _, w, v = cone_triangle(u)
            assert les_of_ses(w, v).checks.passed


# diagonals of the finite diagonal groups of order <= 6
SMALL_DIAGONALS = [[]] + [[d] for d in range(1, 7)] + [
    [a, b] for a in range(1, 7) for b in range(1, 7) if a * b <= 6]


def _diagonal_group(diag: list[int]) -> FgAbelianGroup:
    n = len(diag)
    return FgAbelianGroup(n, mat([[d if i == j else 0 for j in range(n)]
                                  for i, d in enumerate(diag)], n))


@st.composite
def _small_chain_maps(draw) -> ChainMap:
    """A chain map u: A -> B of two-term complexes of finite diagonal groups
    (trivial Gamma), each piece of order <= 6.  Either u^{-1} includes A^{-1}
    into B^{-1} = A^{-1} + F with d_B = (d_A u^0; f), or u^0 projects
    A^0 = B^0 + E onto B^0 with d_A = (u^{-1} d_B, e); the square commutes."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    dp, dq, dr, ds = (draw(st.sampled_from(SMALL_DIAGONALS)) for _ in range(4))
    p, q, r, s = map(_diagonal_group, (dp, dq, dr, ds))

    def hom(src, src_diag, tgt, tgt_diag) -> IntMatrix:
        return constructive_hom(rng, src, src_diag, tgt, tgt_diag).matrix

    if draw(st.booleans()):
        # A = [p -> q], F = s, B = [p + s -> r]
        d_a, u_0, f = hom(p, dp, q, dq), hom(q, dq, r, dr), hom(s, ds, r, dr)
        a_terms, b_terms = (p, q), (direct_sum(p, s), r)
        u_m1 = hstack(identity(p.ambient_rank), zeros(p.ambient_rank, s.ambient_rank))
        d_b = vstack(d_a @ u_0, f)
    else:
        # B = [q -> r], E = s, A = [p -> r + s]
        u_m1, d_b, e = hom(p, dp, q, dq), hom(q, dq, r, dr), hom(p, dp, s, ds)
        a_terms, b_terms = (p, direct_sum(r, s)), (q, r)
        d_a = hstack(u_m1 @ d_b, e)
        u_0 = vstack(identity(r.ambient_rank), zeros(s.ambient_rank, r.ambient_rank))

    def complex_of(terms, d) -> BoundedComplex:
        src, tgt = (trivial_module(G1, t) for t in terms)
        return two_term_complex(GammaHom(src, tgt, d))

    u = ChainMap(complex_of(a_terms, d_a), complex_of(b_terms, d_b), {-1: u_m1, 0: u_0})
    assert u.is_valid()
    return u


class TestLongExactByEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(_small_chain_maps())
    def test_cone_sequence_exact_at_every_spot(self, u):
        # 0 -> B -> cone(u) -> A[1] -> 0, checked element by element
        _, w, v = cone_triangle(u)
        seq = les_of_ses(w, v)
        assert inexact_spots(seq) == []
        assert seq.checks.passed
