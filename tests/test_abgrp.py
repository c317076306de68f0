import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from redinv import intmat
from redinv.intmat import (
    IntMatrix,
    hermite_basis,
    hnf,
    hstack,
    identity,
    kernel_basis,
    mat,
    member_coords,
    vstack,
    zeros,
)
from redinv.abgrp import (
    MAX_RANK,
    AbHom,
    FgAbelianGroup,
    NotComposable,
    cokernel,
    direct_sum,
    exactness,
    homology_at,
    is_exact_at,
    kernel,
)
from redinv.homcx import six_term_sequence

from oracles import (
    constructive_hom,
    gcd_of_minors_invariants,
    in_row_lattice,
    inexact_spots,
    leading_entries,
    random_diagonal_group,
    random_group,
    random_hom,
    random_matrix,
    reference_hermite_basis,
    six_term_by_maps,
)


Z = FgAbelianGroup.free(1)
Z2 = FgAbelianGroup.free(2)
C2, C3, C4 = (FgAbelianGroup(1, mat([[n]])) for n in (2, 3, 4))  # Z/n


class TestGroups:
    def test_invariants_of_free(self):
        assert Z2.invariants() == (2, ())

    def test_invariants_of_cyclic(self):
        assert FgAbelianGroup(1, mat([[6]])).invariants() == (0, (6,))

    def test_trivial(self):
        g = FgAbelianGroup.trivial()
        assert g.is_trivial() and g.order() == 1

    def test_non_diagonal_relations(self):
        # Z^2 / <(2, 3), (2, -3)>: determinant 12, entry gcd 1, so Z/12.
        g = FgAbelianGroup(2, mat([[2, 3], [2, -3]]))
        assert g.invariants() == (0, (12,))

    def test_order(self):
        assert FgAbelianGroup(2, mat([[2, 0], [0, 3]])).order() == 6
        assert Z.order() is None

    def test_reduce_canonical(self):
        assert C4.reduce((7,)) == C4.reduce((3,))
        assert C4.contains_in_relations((4,))

    def test_presentation_invariance(self):
        # Unimodular change of the relation rows gives the same group: the
        # relations are kept as the lattice's Hermite basis.
        rng = random.Random(7)
        for _ in range(40):
            g = random_group(rng, 3, 8)
            if g.relations.rows == 0:
                continue
            _, u = hnf(
                mat(
                    [
                        [rng.randint(-2, 2) for _ in range(g.relations.rows)]
                        for _ in range(g.relations.rows)
                    ]
                )
            )
            g2 = FgAbelianGroup(g.ambient_rank, u @ g.relations)
            assert g2.invariants() == g.invariants()
            assert g2 == g
            assert hermite_basis(g.relations) == g.relations


def _minors_invariants(g: FgAbelianGroup, rows: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) from the gcds of the minors of the rows given,
    with no Hermite or Smith form."""
    factors = gcd_of_minors_invariants(rows)
    return g.ambient_rank - len(factors), tuple(d for d in factors if d > 1)


class TestInvariantsOnTheNonUnitBlock:
    """``invariants`` drops the generators of unit pivots and runs the Smith
    loop on the rest; the gcds of the minors of the relations say what the
    whole group is."""

    @pytest.mark.parametrize("rows, want", [
        pytest.param(zeros(0, 3), (3, ()), id="no-relations"),
        pytest.param(mat([[1, 2, 3], [0, 1, 4], [0, 0, 1]]), (0, ()), id="all-pivots-unit"),
        pytest.param(mat([[2, 1], [1, 1]]), (0, ()), id="unimodular-not-hermite"),
        pytest.param(mat([[2, 0, 1, 0], [0, 3, 0, 0]]), (2, (3,)),
                     id="free-columns-right-of-non-unit-pivots"),
        pytest.param(mat([[1, 3, 2], [0, 4, 0]]), (1, (4,)),
                     id="unit-pivot-row-with-entries-in-non-unit-columns"),
        pytest.param(mat([[1, 5, 7, 0], [0, 6, 2, 3], [0, 0, 9, 1]]), None,
                     id="unit-pivot-above-a-dense-block"),
    ])
    def test_edge_cases(self, rows, want):
        g = FgAbelianGroup(rows.cols, rows)
        assert g.invariants() == _minors_invariants(g, rows)
        if want is not None:
            assert g.invariants() == want

    @pytest.mark.parametrize("seed", range(4))
    def test_random_groups(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            g = random_group(rng, 6, 8)
            assert g.invariants() == _minors_invariants(g, g.relations)
            n = rng.randint(1, 5)
            rows = random_matrix(rng, rng.randint(0, n + 1), n, rng.choice((1, 3, 9)))
            g = FgAbelianGroup(n, rows)
            assert g.invariants() == _minors_invariants(g, rows)


class TestHoms:
    def test_well_defined(self):
        f = AbHom(C2, C4, mat([[2]]))
        assert f.is_well_defined()

    def test_ill_defined(self):
        f = AbHom(C2, C4, mat([[1]]))
        assert not f.is_well_defined()

    def test_compose(self):
        f = AbHom(Z, Z, mat([[2]]))
        g = AbHom(Z, C4, mat([[1]]))
        assert f.then(g).matrix.data == ((2,),)
        with pytest.raises(NotComposable):
            g.then(f)


class TestKernelCokernelImage:
    def test_kernel_of_multiplication(self):
        f = AbHom(Z, Z, mat([[3]]))
        k, _ = kernel(f)
        assert k.is_trivial()

    def test_kernel_of_projection(self):
        f = AbHom(Z, C3, mat([[1]]))
        k, inc = kernel(f)
        assert k.invariants() == (1, ())
        # the inclusion lands in 3Z
        assert all(v % 3 == 0 for row in inc.matrix.data for v in row)

    def test_cokernel(self):
        f = AbHom(Z, Z, mat([[4]]))
        c, proj = cokernel(f)
        assert c.invariants() == (0, (4,))
        assert proj.is_surjective()

    def test_image(self):
        # the image is the kernel of the projection onto the cokernel
        f = AbHom(Z2, Z, mat([[2], [4]]))
        im, inc = kernel(cokernel(f)[1])
        assert im.invariants() == (1, ())
        # inc and x2 generate the same subgroup: their quotients are equal
        assert cokernel(inc)[0] == cokernel(AbHom(Z, Z, mat([[2]])))[0]

    def test_torsion_kernel(self):
        # x -> 2x on Z/4 has kernel Z/2 and cokernel Z/2.
        f = AbHom(C4, C4, mat([[2]]))
        assert kernel(f)[0].invariants() == (0, (2,))
        assert cokernel(f)[0].invariants() == (0, (2,))

    def test_preimage_element(self):
        f = AbHom(Z, Z, mat([[3]]))
        assert member_coords(f.matrix, f.target.relations, mat([[6]])) == mat([[2]])
        assert member_coords(f.matrix, f.target.relations, mat([[5]])) is None

    def test_first_isomorphism(self):
        rng = random.Random(8)
        for _ in range(60):
            src = random_group(rng, 3, 6)
            tgt = random_group(rng, 3, 6)
            f = random_hom(rng, src, tgt)
            k, _ = kernel(f)
            c, proj = cokernel(f)
            im, _ = kernel(proj)
            # rank counting: rk(src) = rk(ker) + rk(im), rk(tgt) = rk(im) + rk(cok)
            rk = [g.invariants()[0] for g in (src, k, im, tgt, c)]
            assert rk[0] == rk[1] + rk[2]
            assert rk[3] == rk[2] + rk[4]


class TestMembership:
    def test_member_coords(self):
        gens = mat([[2, 0], [0, 3]])
        c = member_coords(gens, zeros(0, 2), mat([[4, 6]]))
        assert c.data == ((2, 2),)
        assert member_coords(gens, zeros(0, 2), mat([[1, 0]])) is None

    def test_member_coords_mod_relations(self):
        # (1, 0) is in <(3, 0)> inside Z/2 x Z.
        gens = mat([[3, 0]])
        rels = mat([[2, 0]])
        c = member_coords(gens, rels, mat([[1, 0]]))
        assert c is not None
        assert (c[0, 0] * 3 - 1) % 2 == 0

    def test_preimage_lattice(self):
        # x such that x * (1) lies in 2Z: that is exactly 2Z.
        lat = kernel_basis(mat([[1]]), mat([[2]]))
        assert FgAbelianGroup(1, lat) == FgAbelianGroup(1, mat([[2]]))
        assert FgAbelianGroup(1, lat) != FgAbelianGroup(1, identity(1))

    def test_subgroup(self):
        # the subgroup generated by the rows of gens: one generator per row,
        # related by the preimage of the ambient relations
        gens = mat([[2, 0], [0, 0]])
        g = FgAbelianGroup(2, kernel_basis(gens, Z2.relations))
        inc = AbHom(g, Z2, gens)
        assert g.invariants() == (1, ())
        assert inc.is_well_defined() and inc.is_injective()


def _matrices(rows: int, cols: int):
    row = st.lists(st.integers(-5, 5), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(lambda r: mat(r, cols))


@st.composite
def _member_batches(draw):
    """(gens, rels, vecs) with every row of vecs equal to C @ gens + R @ rels."""
    n = draw(st.integers(1, 4))
    gens = draw(_matrices(draw(st.integers(0, 3)), n))
    rels = draw(_matrices(draw(st.integers(0, 3)), n))
    k = draw(st.integers(1, 4))
    vecs = draw(_matrices(k, gens.rows)) @ gens + draw(_matrices(k, rels.rows)) @ rels
    return gens, rels, vecs


class TestBatchedMembership:
    @settings(max_examples=80, deadline=None)
    @given(_member_batches())
    def test_every_row_solves_modulo_relations(self, batch):
        gens, rels, vecs = batch
        x = member_coords(gens, rels, vecs)
        assert x is not None and x.shape == (vecs.rows, gens.rows)
        # the relation lattice's own HNF reduction decides membership
        grp = FgAbelianGroup(gens.cols, rels)
        assert all(grp.contains_in_relations(r) for r in (x @ gens - vecs).data)

    @settings(max_examples=80, deadline=None)
    @given(_member_batches(), st.data())
    def test_one_row_outside_gives_none(self, batch, data):
        gens, rels, vecs = batch
        # an extra ambient coordinate that no generator or relation touches
        def pad(m):
            return hstack(m, zeros(m.rows, 1))
        rows = list(pad(vecs).data)
        rows.insert(data.draw(st.integers(0, len(rows))), (0,) * gens.cols + (1,))
        assert member_coords(pad(gens), pad(rels), mat(rows, gens.cols + 1)) is None

    def test_one_hermite_form_per_batch(self, monkeypatch):
        calls = []
        real = intmat._echelon
        monkeypatch.setattr(intmat, "_echelon",
                            lambda rows, c: calls.append(c) or real(rows, c))
        monkeypatch.setattr(intmat, "hnf", lambda m: pytest.fail("hnf called"))
        monkeypatch.setattr(intmat, "snf", lambda m: pytest.fail("snf called"))
        gens, rels = mat([[2, 0], [0, 3]]), mat([[4, 0]])
        assert member_coords(gens, rels, mat([[2, 3], [4, 0], [0, 9]])) is not None
        assert len(calls) == 1
        assert member_coords(gens, rels, zeros(0, 2)) == zeros(0, 2)
        assert len(calls) == 1


class TestExactness:
    def test_exact_pair(self):
        # 0 -> Z --2--> Z -> Z/2 -> 0 is exact in the middle.
        f = AbHom(Z, Z, mat([[2]]))
        g = AbHom(Z, C2, mat([[1]]))
        assert is_exact_at(f, g)

    def test_inexact_pair(self):
        # image 4Z is strictly inside kernel 2Z of Z -> Z/2... taken mod 4.
        f = AbHom(Z, Z, mat([[4]]))
        g = AbHom(Z, C2, mat([[1]]))
        assert not is_exact_at(f, g)

    def test_homology_at(self):
        # Z --0--> Z --4--> Z has homology Z/4 at the right-hand Z? No:
        # homology at middle of d_in = 0, d_out = 4 is ker(4)/im(0) = 0.
        d_in = AbHom(Z, Z, mat([[0]]))
        d_out = AbHom(Z, Z, mat([[4]]))
        h = homology_at(d_in, d_out)
        assert h.group.is_trivial()
        # and with d_out = 0 the homology is coker(d_in) of the zero map: Z
        h2 = homology_at(d_in, AbHom(Z, Z, mat([[0]])))
        assert h2.group.invariants() == (1, ())

    def test_class_coords(self):
        d_in = AbHom(Z, Z, mat([[4]]))
        d_out = AbHom(Z, Z, mat([[0]]))
        h = homology_at(d_in, d_out)
        assert h.group.invariants() == (0, (4,))
        assert h.class_coords(mat([[5]])) is not None
        c5 = h.class_coords(mat([[5]]))
        c1 = h.class_coords(mat([[1]]))
        assert h.group.reduce(c5.row(0)) == h.group.reduce(c1.row(0))


def _invariants(seq) -> list:
    return [g.invariants() for g in seq.groups]


class TestSixTerm:
    def test_multiplication_chain(self):
        # u = x2, v = x3 on Z: ker all trivial, cok Z/2 -> Z/6 -> Z/3.
        u = AbHom(Z, Z, mat([[2]]))
        v = AbHom(Z, Z, mat([[3]]))
        rep = six_term_sequence(u, v)
        assert rep.checks.passed
        invs = [g.invariants() for g in rep.groups]
        assert invs == [(0, ()), (0, ()), (0, ()), (0, (2,)), (0, (6,)), (0, (3,))]

    def test_with_torsion(self):
        u = AbHom(Z, Z, mat([[2]]))
        v = AbHom(Z, C4, mat([[1]]))
        rep = six_term_sequence(u, v)
        assert rep.checks.passed
        assert rep.groups[2].invariants() == (1, ())  # ker v = 4Z

    def test_random_pairs(self):
        rng = random.Random(9)
        for _ in range(120):
            a, da = random_diagonal_group(rng, 3, 6)
            b, db = random_diagonal_group(rng, 3, 6)
            c, dc = random_diagonal_group(rng, 3, 6)
            u = constructive_hom(rng, a, da, b, db)
            v = constructive_hom(rng, b, db, c, dc)
            rep = six_term_sequence(u, v)
            assert rep.checks.passed
            for f in rep.maps:
                assert f.is_well_defined()
            assert _invariants(rep) == _invariants(six_term_by_maps(u, v))


def _fresh(f: AbHom) -> AbHom:
    """f with equal but distinct matrices, which share no solved state."""
    def twin(g):
        return FgAbelianGroup(g.ambient_rank, IntMatrix(g.relations.data, g.ambient_rank))
    return AbHom(twin(f.source), twin(f.target), IntMatrix(f.matrix.data, f.matrix.cols))


_VERDICTS = {
    "injective": lambda f, g: f.is_injective(),
    "surjective": lambda f, g: f.is_surjective(),
    "kernel": lambda f, g: kernel(f)[0],
    "cokernel": lambda f, g: cokernel(f)[0],
    "exact": lambda f, g: is_exact_at(f, g),
    "homology": lambda f, g: homology_at(f, g).group,
    "classes": lambda f, g: (lambda h: h.class_coords(h.gens))(homology_at(f, g)),
}


class TestSharedSolve:
    """The verdicts, kernels and cokernels of a pair of maps share one
    elimination per map and relations, and give the same answers in every
    call order as maps that share nothing."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.permutations(sorted(_VERDICTS)))
    def test_every_call_order(self, seed, order):
        rng = random.Random(seed)
        a, b, c = (random_group(rng, 3, 6) for _ in range(3))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c) if rng.random() < 0.5 else cokernel(f)[1]
        want = {name: call(_fresh(f), _fresh(g)) for name, call in _VERDICTS.items()}
        for name in order + order:
            assert _VERDICTS[name](f, g) == want[name], name

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32))
    def test_cokernel_reads_the_solved_image(self, seed):
        rng = random.Random(seed)
        f = random_hom(rng, random_group(rng, 4, 6), random_group(rng, 4, 6))
        want = FgAbelianGroup(f.target.ambient_rank, vstack(f.target.relations, f.matrix))
        assert cokernel(f)[0] == want
        kernel_basis(f.matrix, f.target.relations)
        image = intmat.image_basis(f.matrix, f.target.relations)
        assert cokernel(f)[0] == want
        assert cokernel(f)[0].relations is image

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32), st.permutations(["cokernel", "kernel", "coords"]))
    def test_cokernel_relations_in_every_call_order(self, seed, order):
        rng = random.Random(seed)
        f = random_hom(rng, random_group(rng, 4, 6), random_group(rng, 4, 6))
        rels = f.target.relations
        vecs = vstack(random_matrix(rng, 1, f.matrix.rows, 5) @ f.matrix,
                      random_matrix(rng, 1, f.target.ambient_rank, 5))
        fresh = _fresh(f)
        want = {"cokernel": hermite_basis(vstack(rels, f.matrix)),
                "kernel": kernel_basis(fresh.matrix, fresh.target.relations),
                "coords": member_coords(_fresh(f).matrix, fresh.target.relations, vecs)}
        calls = {"cokernel": lambda: cokernel(f)[0].relations,
                 "kernel": lambda: kernel_basis(f.matrix, rels),
                 "coords": lambda: member_coords(f.matrix, rels, vecs)}
        for name in order + order:
            assert calls[name]() == want[name], name

    @settings(max_examples=100, deadline=None)
    @given(_matrices(3, 3), _matrices(2, 3), _matrices(2, 3), _matrices(3, 3), st.data())
    def test_class_coords_modulo_a_redundant_denominator(self, ker_gens, middle, image, vecs, data):
        # the image rows, taken in the kernel, and their sum have a
        # redundant row, which the image basis drops
        image = image @ ker_gens
        image = vstack(image, mat([list(map(sum, zip(*image.data)))]))
        sq = _cycles_modulo_image(middle, ker_gens, image)
        if data.draw(st.booleans()):
            vecs = vecs @ ker_gens + data.draw(_matrices(3, 2)) @ middle
        c = sq.class_coords(vecs)
        assert (c is not None) == in_row_lattice(vstack(ker_gens, middle), vecs)
        if c is not None:
            assert c @ sq.gens == vecs

    def test_class_coords_are_read_with_no_elimination(self, monkeypatch):
        # H^0 of [Z --6--> Z]: the image basis [[6]] has a non-unit pivot,
        # and 7 is not reduced modulo it; the coordinates on the kernel
        # basis are exact, and read by back-substitution alone
        h = homology_at(AbHom(Z, Z, mat([[6]])), AbHom(Z, FgAbelianGroup.trivial(), zeros(1, 0)))
        runs = []
        echelon = intmat._echelon
        monkeypatch.setattr(intmat, "_echelon", lambda rows, c: runs.append(c) or echelon(rows, c))
        vecs = mat([[7], [-13]])
        c = h.class_coords(vecs)
        assert c @ h.gens == vecs
        assert runs == []


def _cycles_modulo_image(middle: IntMatrix, ker_gens: IntMatrix, image: IntMatrix):
    """``homology_at`` of A --image--> B --> B / <ker_gens>, B = Z^n / <middle>,
    A free on the image rows: ker is the lattice of ker_gens and middle,
    which must hold the image rows for the maps to compose to zero."""
    n = middle.cols
    b = FgAbelianGroup(n, middle)
    d_in = AbHom(FgAbelianGroup.free(image.rows), b, image)
    return homology_at(d_in, AbHom(b, FgAbelianGroup(n, vstack(ker_gens, middle)), identity(n)))


def _kills(f: AbHom, g: AbHom, diag: list[int]) -> bool:
    """g o f = 0 into a diagonal target, read entry by entry: column j of
    f @ g is 0 modulo diag[j] (exactly 0 where diag[j] = 0)."""
    return all(x % d == 0 if d else x == 0
               for row in (f.matrix @ g.matrix).data for x, d in zip(row, diag))


def _killing_map(rng, f: AbHom, tgt: FgAbelianGroup, tgt_diag: list[int]) -> AbHom:
    """A well-defined g: B -> C with g o f = 0: column j is a combination of
    the right kernel of [f; relations of B], plus a multiple of tgt_diag[j]."""
    k = kernel_basis(vstack(f.matrix, f.target.relations).transpose())
    cols = []
    for d in tgt_diag:
        coeffs = [rng.randint(-3, 3) for _ in range(k.rows)]
        cols.append([sum(c * row[i] for c, row in zip(coeffs, k.data)) + d * rng.randint(-3, 3)
                     for i in range(f.target.ambient_rank)])
    return AbHom(f.target, tgt, mat(zip(*cols), tgt.ambient_rank) if cols
                 else zeros(f.target.ambient_rank, 0))


class TestCokernelUniversalProperty:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_factors_exactly_when_composite_vanishes(self, seed, killing):
        rng = random.Random(seed)
        a, da = random_diagonal_group(rng, 3, 6)
        b, db = random_diagonal_group(rng, 3, 6)
        c, dc = random_diagonal_group(rng, 3, 6)
        f = constructive_hom(rng, a, da, b, db)
        g = _killing_map(rng, f, c, dc) if killing else constructive_hom(rng, b, db, c, dc)
        assert g.is_well_defined()
        assert not killing or _kills(f, g, dc)
        q, proj = cokernel(f)
        # proj is onto, so g has at most one factorization h with proj.then(h) = g;
        # proj is the identity on the ambient, so the candidate is g's matrix
        assert proj.is_surjective()
        h = AbHom(q, c, g.matrix)
        assert h.is_well_defined() == _kills(f, g, dc)
        assert proj.then(h).matrix == g.matrix


@st.composite
def _finite_diagonal_groups(draw) -> tuple[FgAbelianGroup, list[int]]:
    diag = draw(st.lists(st.integers(1, 6), max_size=2))
    n = len(diag)
    rows = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)]
    return FgAbelianGroup(n, mat(rows, n)), diag


class TestSixTermByEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_at_every_spot(self, data):
        (a, da), (b, db), (c, dc) = (data.draw(_finite_diagonal_groups()) for _ in range(3))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        u = constructive_hom(rng, a, da, b, db)
        v = constructive_hom(rng, b, db, c, dc)
        rep = six_term_sequence(u, v)
        assert inexact_spots(rep) == []
        assert rep.checks.passed
        assert _invariants(rep) == _invariants(six_term_by_maps(u, v))


def _is_zero_by_invariants(h: AbHom) -> bool:
    """h = 0 iff coker h is isomorphic to the target: a finitely generated
    abelian group is isomorphic to no proper quotient of itself."""
    return cokernel(h)[0].invariants() == h.target.invariants()


class TestVerdictsAgainstInvariants:
    """The membership verdicts agree with the invariant factors of kernel
    and cokernel groups, which no verdict reads."""

    def test_injective_and_surjective(self):
        rng = random.Random(14)
        for _ in range(150):
            f = random_hom(rng, random_group(rng, 3, 6), random_group(rng, 3, 6))
            assert f.is_injective() == (kernel(f)[0].invariants() == (0, ()))
            assert f.is_surjective() == (cokernel(f)[0].invariants() == (0, ()))

    def test_exact_at(self):
        rng = random.Random(15)
        seen = set()
        for _ in range(150):
            a, b, c = (random_group(rng, 3, 6) for _ in range(3))
            f = random_hom(rng, a, b)
            # a random g, the cokernel projection of f, or f the kernel
            # inclusion of a random g: both verdicts occur
            pick = rng.randrange(3)
            if pick == 0:
                g = random_hom(rng, b, c)
            elif pick == 1:
                g = cokernel(f)[1]
            else:
                g = random_hom(rng, b, c)
                f = kernel(g)[1]
            _, inc = kernel(g)
            q = cokernel(f)[1]
            want = _is_zero_by_invariants(f.then(g)) and _is_zero_by_invariants(inc.then(q))
            assert is_exact_at(f, g) == want
            seen.add(want)
        assert seen == {True, False}


def _finite_diagonal_group(rng) -> tuple[FgAbelianGroup, list[int]]:
    diag = [rng.randint(1, 6) for _ in range(rng.randint(0, 2))]
    n = len(diag)
    return FgAbelianGroup(n, mat([[d * (i == j) for j in range(n)] for i, d in enumerate(diag)],
                                 n)), diag


def _composable(rng, groups) -> tuple[AbHom, AbHom]:
    """f: A -> B built to be well defined, and g: B -> C that kills f, is
    the cokernel projection of f or is any well-defined map."""
    (a, da), (b, db), (c, dc) = groups
    f = constructive_hom(rng, a, da, b, db)
    pick = rng.randrange(3)
    if pick == 0:
        return f, _killing_map(rng, f, c, dc)
    return f, cokernel(f)[1] if pick == 1 else constructive_hom(rng, b, db, c, dc)


class TestVerdictsFromTheImageBasis:
    """Injectivity from a free source, exactness and the relations of H^0
    read off the image basis, against the gcd-of-minors and enumeration
    oracles, which run no normal-form code."""

    def test_injective_from_a_free_source(self):
        rng = random.Random(31)
        seen = set()
        for k in range(240):
            tgt = random_group(rng, 4, 6)
            rels, n = tgt.relations, tgt.ambient_rank
            m = random_matrix(rng, rng.randint(0, n), n, 5)
            if k % 2:  # one more row, dependent on the others modulo rels
                extra = (random_matrix(rng, 1, m.rows, 3) @ m
                         + random_matrix(rng, 1, rels.rows, 3) @ rels)
                s = rng.choice((1, 2, 3))
                m = vstack(m, mat([[s * x for x in extra.data[0]]], n))
            f = AbHom(FgAbelianGroup.free(m.rows), tgt, m)
            want = (len(gcd_of_minors_invariants(vstack(rels, m)))
                    == len(gcd_of_minors_invariants(rels)) + m.rows)
            assert f.is_injective() == want
            assert not (k % 2 and want)
            seen.add(want)
        assert seen == {True, False}

    def test_exact_at_on_finite_groups(self):
        rng = random.Random(32)
        seen = set()
        for _ in range(150):
            groups = [_finite_diagonal_group(rng) for _ in range(3)]
            f, g = _composable(rng, groups)
            seq = SimpleNamespace(groups=(f.source, f.target, g.target), maps=(f, g),
                                  labels=("A", "B", "C"))
            want = "B" not in inexact_spots(seq)
            assert is_exact_at(f, g) == want
            seen.add(want)
        assert seen == {True, False}

    def test_exact_at_on_infinite_groups(self):
        rng = random.Random(33)
        seen = set()
        for _ in range(150):
            groups = [random_diagonal_group(rng, 3, 6) for _ in range(3)]
            f, g = _composable(rng, groups)
            got = is_exact_at(_fresh(f), _fresh(g))
            kills = in_row_lattice(g.target.relations, f.matrix @ g.matrix)
            want = kills and in_row_lattice(vstack(f.target.relations, f.matrix),
                                            kernel_basis(g.matrix, g.target.relations))
            assert got == want
            seen.add(want)
        assert seen == {True, False}

    def test_subquotient_on_identity_generators(self):
        rng = random.Random(34)
        for _ in range(150):
            middle = random_group(rng, 4, 6)
            n = middle.ambient_rank
            image = random_matrix(rng, rng.randint(0, 3), n, 5)
            # H^0 of [A --image--> middle]: every element is a cycle
            d_in = AbHom(FgAbelianGroup.free(image.rows), middle, image)
            sq = homology_at(d_in, AbHom(middle, FgAbelianGroup.trivial(), zeros(n, 0)))
            rels = sq.group.relations
            assert sq.gens == identity(n)
            assert rels._pivots == leading_entries(rels)
            assert rels == reference_hermite_basis(vstack(middle.relations, image))

    @pytest.mark.parametrize("seed", range(4))
    def test_subquotient_denominator_is_the_certified_image_basis(self, seed):
        # the denominator, [middle; image], is the certified Hermite basis
        # of the relations on identity generators, and else the lattice
        # that the relations span on the kernel basis
        rng = random.Random(40 + seed)
        for k in range(40):
            middle = random_group(rng, 4, 6)
            n = middle.ambient_rank
            ker_gens = identity(n) if k % 2 else random_matrix(rng, rng.randint(0, n), n, 4)
            image = random_matrix(rng, rng.randint(0, 3), ker_gens.rows, 5) @ ker_gens
            sq = _cycles_modulo_image(middle.relations, ker_gens, image)
            rels = sq.group.relations
            stacked = vstack(middle.relations, image)
            if sq.gens.is_identity():
                assert rels._pivots == leading_entries(rels)
                assert rels == reference_hermite_basis(stacked)
            else:
                assert in_row_lattice(stacked, rels @ sq.gens)
                assert in_row_lattice(rels @ sq.gens, stacked)


class TestExactnessEntries:
    def test_verdicts_under_the_given_names(self):
        # Z --2--> Z --1--> Z/2 is exact at every group
        maps = (AbHom(Z, Z, mat([[2]])), AbHom(Z, C2, mat([[1]])))
        assert exactness(maps, "abc") == (("a", True, None), ("b", True, None), ("c", True, None))

    def test_first_inner_and_last_can_fail(self):
        # Z --0--> Z --0--> Z/2: not injective, im 0 != ker Z, not onto Z/2
        maps = (AbHom(Z, Z, mat([[0]])), AbHom(Z, C2, mat([[0]])))
        names = ("injective", "exact", "surjective")
        assert exactness(maps, names) == tuple((name, False, None) for name in names)
        # Z --2--> Z --0--> Z/2 fails only at the inner group and the end
        maps = (AbHom(Z, Z, mat([[2]])), AbHom(Z, C2, mat([[0]])))
        assert [ok for _, ok, _ in exactness(maps, names)] == [True, False, False]

    def test_one_name_per_group(self):
        with pytest.raises(ValueError):
            exactness((AbHom(Z, Z, mat([[1]])),), ("only-one",))


def test_json_rank_bound():
    free = {"ambientRank": MAX_RANK, "relations": []}
    assert FgAbelianGroup.from_json(free).invariants() == (MAX_RANK, ())
    with pytest.raises(ValueError):
        FgAbelianGroup.from_json(dict(free, ambientRank=MAX_RANK + 1))


class TestSums:
    def test_direct_sum(self):
        s = direct_sum(Z, C2, C4)
        assert s.invariants() == (1, (2, 4))

    def test_power(self):
        # a power is the direct sum of copies of one group
        assert direct_sum(*[C3] * 2).invariants() == (0, (3, 3))
        assert direct_sum(*[Z] * 0) == FgAbelianGroup.trivial()
