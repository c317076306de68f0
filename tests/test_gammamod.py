import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from redinv.intmat import DimensionMismatch, hermite_basis, hstack, identity, mat, vstack, zeros
from redinv.abgrp import (
    AbHom,
    FgAbelianGroup,
    IllDefinedHom,
    cokernel,
    homology_at,
    is_exact_at,
    kernel,
)
from redinv import gammamod
from redinv.gammamod import (
    FiniteGroup,
    GammaHom,
    GammaModule,
    InvalidAction,
    InvalidGroupTable,
    cyclic_group,
    equivariant_cokernel,
    equivariant_kernel,
    group_cohomology,
    induced_module,
    subquotient_module,
    trivial_group,
)

from oracles import (
    bar_differential,
    cochain_group,
    dense_fox_row,
    dihedral_group,
    direct_product,
    fox_kernel_basis,
    full_bar_cohomology,
    greedy_cayley_tree,
    in_row_lattice,
    induced_actions,
    is_associative,
    normalized_bar_cohomology,
    power,
    quaternion_group,
    sign_module,
    trivial_module,
)

Z4 = FgAbelianGroup(1, mat([[4]]))


def differential(module, i):
    """Degree i of Hom_Gamma(P, M) for the resolution P of ``_resolution``:
    d0, d1 and the cocycle test z2."""
    return gammamod._cochain_map(module, gammamod._resolution(module.gamma, i), i)


def dense(cell, rows, q):
    """A cell's boundary triples (a, g, c) as rows lists of q coefficients."""
    out = [[0] * q for _ in range(rows)]
    for a, g, c in cell:
        out[a][g] += c
    return out


def all_small_groups():
    """One group of every isomorphism type of order at most 8."""
    c2 = cyclic_group(2)
    return [
        trivial_group(),
        c2,
        cyclic_group(3),
        cyclic_group(4),
        direct_product(c2, c2),
        cyclic_group(5),
        cyclic_group(6),
        dihedral_group(3),
        cyclic_group(7),
        cyclic_group(8),
        direct_product(cyclic_group(4), c2),
        direct_product(direct_product(c2, c2), c2),
        dihedral_group(4),
        quaternion_group(),
    ]


def relabel(gamma, perm):
    """The same group with element x renamed perm[x]."""
    back = {y: x for x, y in enumerate(perm)}
    return FiniteGroup(tuple(
        tuple(perm[gamma.mul(back[a], back[b])] for b in gamma.elements())
        for a in gamma.elements()
    ))


def seeded_relabelling(gamma, rng):
    return relabel(gamma, rng.sample(range(gamma.order), gamma.order))


def permutation_group(*gens):
    """The group generated by permutations of range(n), each a tuple of
    images, with (a b)(i) = a[b[i]]."""
    elems, frontier = {tuple(range(len(gens[0])))}, list(gens)
    while frontier:
        p = frontier.pop()
        if p not in elems:
            elems.add(p)
            frontier += [tuple(p[i] for i in g) for g in gens]
    elems = sorted(elems)
    index = {p: k for k, p in enumerate(elems)}
    return FiniteGroup(tuple(tuple(index[tuple(a[i] for i in b)] for b in elems)
                             for a in elems))


A4 = permutation_group((1, 2, 0, 3), (1, 0, 3, 2))
D6 = permutation_group((1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0))
S4 = permutation_group((1, 0, 2, 3), (1, 2, 3, 0))


def abelianization(gamma):
    """Invariants of Gamma^ab: Z on the elements, modulo [ab] = [a] + [b]."""
    q = gamma.order
    rels = []
    for a in gamma.elements():
        for b in gamma.elements():
            row = [0] * q
            row[a] += 1
            row[b] += 1
            row[gamma.mul(a, b)] -= 1
            rels.append(row)
    return FgAbelianGroup(q, mat(rels, q)).invariants()


def is_cyclic(gamma):
    def order(x):
        k, y = 1, x
        while y != gamma.identity:
            k, y = k + 1, gamma.mul(y, x)
        return k
    return any(order(x) == gamma.order for x in gamma.elements())


class TestGroups:
    def test_orders(self):
        orders = [g.order for g in all_small_groups()]
        assert orders == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8]

    def test_tables_valid(self):
        for g in all_small_groups():
            g.check()

    def test_dihedral_not_abelian(self):
        d = dihedral_group(3)
        assert any(
            d.mul(a, b) != d.mul(b, a)
            for a in d.elements()
            for b in d.elements()
        )

    def test_quaternion_structure(self):
        q = quaternion_group()
        # exactly one element of order 2
        e = q.identity
        order2 = [g for g in q.elements() if g != e and q.mul(g, g) == e]
        assert len(order2) == 1

    def test_inverse(self):
        for g in all_small_groups():
            for a in g.elements():
                assert g.mul(a, g.inverse(a)) == g.identity

    def test_bad_table(self):
        with pytest.raises(InvalidGroupTable):
            FiniteGroup(((0, 0), (0, 0))).check()

    def test_json_non_associative_latin_square(self):
        # identity 0 and every row a permutation, but (1*2)*2 = 4 != 1*(2*2) = 1;
        # unchecked, its trivial action on Z gives the plausible H^0 = Z, H^1 = H^2 = 0
        table = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        obj = {"gamma": {"table": table},
               "group": {"ambientRank": 1, "relations": []},
               "action": {str(g): [[1]] for g in range(5)}}
        with pytest.raises(InvalidGroupTable, match="associativity"):
            GammaModule.from_json(obj)

    def test_json_round_trip(self):
        g = dihedral_group(4)
        assert FiniteGroup.from_json({"table": [list(r) for r in g.table]}).table == g.table

    @pytest.mark.parametrize("table", [
        pytest.param([[0, 1.7], [True, "0"]], id="float-bool"),  # int() reads C2
        pytest.param([[0, 1], [1, True]], id="bool"),
        pytest.param([[0, 1.0], [1, 0]], id="integral-float"),
        pytest.param(["01", "10"], id="string-rows"),
        pytest.param("0110", id="string-table"),
    ])
    def test_from_json_rejects_non_integers(self, table):
        with pytest.raises(ValueError):
            FiniteGroup.from_json({"table": table})


class TestModules:
    def test_sign_module_checks(self):
        sign_module().check()

    def test_bad_composition_rejected(self):
        # "action" of C4 where the generator squares to the identity matrix
        # but the element of order 4 does not: composition law must fail.
        c4 = cyclic_group(4)
        m = GammaModule(
            c4,
            FgAbelianGroup.free(1),
            (identity(1), mat([[-1]]), identity(1), identity(1)),
        )
        with pytest.raises(InvalidAction):
            m.check()

    def test_induced_module_checks(self):
        for gamma in (cyclic_group(3), dihedral_group(3)):
            induced_module(gamma, 2).check()

    def test_induced_module_actions_match_the_oracle(self):
        for gamma in all_small_groups() + [A4]:
            for k in (1, 2):
                m = induced_module(gamma, k)
                assert m.group == FgAbelianGroup.free(k * gamma.order)
                assert [list(map(list, a.data)) for a in m.actions] == induced_actions(gamma, k)

    def test_torsion_action(self):
        # negation on Z/5 is a valid C2-action
        m = GammaModule(
            cyclic_group(2), FgAbelianGroup(1, mat([[5]])), (identity(1), mat([[-1]]))
        )
        m.check()
        assert m.group.reduce((mat([[2]]) @ m.actions[1]).data[0]) == m.group.reduce((-2,))


# C2 with its identity labelled 1
C2_RELABELLED = FiniteGroup(((1, 0), (0, 1)))


class TestModuleCheck:
    @pytest.mark.parametrize("gamma, group, actions, message", [
        (cyclic_group(2), FgAbelianGroup.free(1), ([[-1]], [[-1]]),
         "identity element does not act trivially"),
        (C2_RELABELLED, FgAbelianGroup.free(1), ([[1]], [[-1]]),
         "identity element does not act trivially"),
        # the swap moves the relation (2, 0) to (0, 2)
        (cyclic_group(2), FgAbelianGroup(2, mat([[2, 0]])), ([[1, 0], [0, 1]], [[0, 1], [1, 0]]),
         "action of element 1 breaks the relations"),
        (cyclic_group(2), Z4, ([[1]], [[2]]), "action of element 1 is not invertible"),
        # the generator squares to 1 but its cube is not itself
        (cyclic_group(4), FgAbelianGroup.free(1), ([[1]], [[-1]], [[1]], [[1]]),
         "composition law fails"),
    ], ids=["identity", "identity-labelled-1", "relations", "invertible", "composition"])
    def test_each_failure(self, gamma, group, actions, message):
        m = GammaModule(gamma, group, tuple(mat(a) for a in actions))
        with pytest.raises(InvalidAction, match=f"^{message}$"):
            m.check()

    @pytest.mark.parametrize("gamma", [S4, dihedral_group(4), quaternion_group()],
                             ids=["S4", "D4", "Q8"])
    def test_perturbed_non_generator_breaks_composition(self, gamma):
        # the law is tested on pairs (g, s) with s a generator only; M_g
        # for g no generator enters those pairs as g and as g s
        gens = gammamod._cayley_tree(gamma)[0]
        good = induced_module(gamma, 1)
        good.check()
        for g in gamma.elements():
            if g == gamma.identity or g in gens:
                continue
            # M_{s g}: a permutation matrix, keeps the relations, invertible
            actions = list(good.actions)
            actions[g] = good.actions[g] @ good.actions[gens[0]]
            m = GammaModule(gamma, good.group, tuple(actions))
            # the oracle's q^2 products are slow over S4
            assert gamma.order > 8 or reference_check(m) == "composition law fails"
            with pytest.raises(InvalidAction, match="^composition law fails$"):
                m.check()

    @pytest.mark.parametrize("gamma, group, actions", [
        (trivial_group(), FgAbelianGroup(1, mat([[2]])), ([[3]],)),
        (cyclic_group(2), FgAbelianGroup(1, mat([[2]])), ([[3]], [[-1]])),
        (C2_RELABELLED, FgAbelianGroup.free(1), ([[-1]], [[1]])),
        # M_e - 1 has the rows (0, 3) and (2, 0) of the relation lattice
        (cyclic_group(2), FgAbelianGroup(2, mat([[2, 0], [0, 3]])),
         ([[1, 3], [2, 1]], [[-1, 0], [0, -1]])),
    ], ids=["Z/2-trivial", "Z/2-C2", "labelled-1", "Z/2+Z/3"])
    def test_identity_acting_trivially_modulo_relations(self, gamma, group, actions):
        GammaModule(gamma, group, tuple(mat(a) for a in actions)).check()


class TestFixedPoints:
    def test_trivial_action(self):
        m = trivial_module(cyclic_group(3), FgAbelianGroup.free(2))
        fix, _ = kernel(differential(m, 0))
        assert fix.invariants() == (2, ())

    def test_sign_action(self):
        fix, _ = kernel(differential(sign_module(), 0))
        assert fix.is_trivial()

    def test_swap_action(self):
        # C2 swapping the coordinates of Z^2: fixed line (1, 1).
        m = GammaModule(
            cyclic_group(2),
            FgAbelianGroup.free(2),
            (identity(2), mat([[0, 1], [1, 0]])),
        )
        fix, inc = kernel(differential(m, 0))
        assert fix.invariants() == (1, ())
        # inc and (1, 1) generate the same subgroup: equal quotients of Z^2
        assert cokernel(inc)[0] == FgAbelianGroup(2, mat([[1, 1]]))

    def test_induced_module_fixed_rank(self):
        # fixed points of Z[Gamma] are the norm line, rank 1 per copy
        for gamma in (cyclic_group(4), dihedral_group(3)):
            fix, _ = kernel(differential(induced_module(gamma, 2), 0))
            assert fix.invariants() == (2, ())

    def test_equals_kernel_of_all_elements(self):
        # the kernel of d0 (one block per generator) is the kernel of the
        # map stacking M_g - 1 for every g: same Hermite basis, same group
        modules = list(small_modules()) + [induced_module(g, 1) for g in all_small_groups()]
        for m in modules:
            ide = identity(m.group.ambient_rank)
            stacked = hstack(*(a - ide for a in m.actions))
            f = AbHom(m.group, power(m.group, m.gamma.order), stacked)
            assert kernel(differential(m, 0)) == kernel(f)


def presentation_groups():
    """Every group of order <= 8 and three seeded relabellings each of D4
    and Q8, since the Cayley-graph tree depends on the labels."""
    rng = random.Random(8)
    relabelled = [seeded_relabelling(g, rng) for g in (dihedral_group(4), quaternion_group())
                  for _ in range(3)]
    return all_small_groups() + relabelled


def non_tree_edges(gamma, gens, tree):
    return [(g, j) for g in tree for j, s in enumerate(gens) if tree[gamma.mul(g, s)] != (g, j)]


def relator_rows(gamma):
    """Generators S, the Cayley-graph tree, and the Fox rows of the relator
    of every non-tree edge (g, j), keyed by the edge in breadth-first order,
    each as |S| lists of q coefficients."""
    gens, tree = gammamod._cayley_tree(gamma)
    return gens, tree, {edge: dense(gammamod._fox_row(gamma, gens, tree, *edge), len(gens),
                                    gamma.order)
                        for edge in non_tree_edges(gamma, gens, tree)}


class TestPresentation:
    def test_relator_count(self):
        for gamma in presentation_groups():
            gens, tree, rows = relator_rows(gamma)
            assert len(tree) == gamma.order
            assert len(rows) == gamma.order * (len(gens) - 1) + 1

    def test_generator_counts(self):
        # greedy picks: C2 x C2 needs 2, C2^3 needs 3, S3, D4 and Q8 need 2
        counts = [len(gammamod._cayley_tree(g)[0]) for g in all_small_groups()]
        assert counts == [0, 1, 1, 1, 2, 1, 1, 2, 1, 1, 2, 3, 2, 2]

    def test_cyclic_one_generator_one_relator(self):
        assert relator_rows(trivial_group()) == ((), {0: None}, {})
        for n in range(2, 9):
            for gamma in (cyclic_group(n), seeded_relabelling(cyclic_group(n), random.Random(n))):
                gens, _, rows = relator_rows(gamma)
                assert len(gens) == 1
                assert list(rows.values()) == [[[1] * n]]

    def test_fox_fundamental_formula(self):
        # sum_s (d r / d s)(s - 1) = r - 1, which is 0 in Z[Gamma]
        for gamma in presentation_groups():
            gens, _, rows = relator_rows(gamma)
            for fox in rows.values():
                total = [0] * gamma.order
                for s, coeffs in zip(gens, fox):
                    for h, c in enumerate(coeffs):
                        total[gamma.mul(h, s)] += c
                        total[h] -= c
                assert total == [0] * gamma.order

    def test_relator_is_one_at_its_own_edge(self):
        # the non-tree edges are coordinates on the cycle lattice, and the
        # relator of each is its coordinate vector: the peeling relies on it
        for gamma in presentation_groups() + [A4, D6, S4]:
            _, _, rows = relator_rows(gamma)
            for edge, fox in rows.items():
                assert [fox[j][g] for g, j in rows] == [int(e == edge) for e in rows]


def translates(gamma, fox_rows, width):
    """The rows g . d r / d s, over r and g, in the coordinates (s, x) of
    Z[Gamma]^S: the Z-lattice that the relators map onto."""
    return mat([[dj[gamma.mul(gamma.inverse(g), x)] for dj in d for x in gamma.elements()]
                for d in fox_rows for g in gamma.elements()], width)


class TestSpanningRelators:
    def test_group_orders(self):
        assert (A4.order, D6.order, S4.order) == (12, 12, 24)
        assert not any(is_cyclic(g) for g in (A4, D6, S4))

    def test_translates_span_the_relation_lattice(self):
        for gamma in presentation_groups() + [A4, D6, S4]:
            gens, tree, rows = relator_rows(gamma)
            kept = [dense(cell, len(gens), gamma.order)
                    for cell in gammamod._resolution(gamma, 1)[1]]
            # each kept cell is the Fox row of one relator, in breadth-first order
            edges = [edge for cell in kept for edge in rows if rows[edge] == cell]
            assert len(edges) == len(kept)
            assert edges == [edge for edge in rows if edge in edges]
            width = gamma.order * len(gens)
            assert (hermite_basis(translates(gamma, kept, width))
                    == hermite_basis(translates(gamma, rows.values(), width)))
            if not is_cyclic(gamma):
                assert len(kept) < len(rows)

    def test_kept_counts(self):
        # C2 x C2 x C2 17 -> 6, D4 9 -> 3, Q8 9 -> 2, S3 7 -> 3, D6 13 -> 3, S4 25 -> 3
        c2 = cyclic_group(2)
        groups = [direct_product(direct_product(c2, c2), c2), dihedral_group(4),
                  quaternion_group(), dihedral_group(3), D6, S4]
        counts = [len(gammamod._resolution(g, 1)[1]) for g in groups]
        assert counts == [6, 3, 2, 3, 3, 3]


def signed_permutation_group(n):
    """W(B_n), of order 2^n n!: the permutations of the 2n points +-(i + 1),
    as i and n + i, that commute with the sign.  Its generators swap i and
    i + 1 for i < n - 1, and the sign of the last point."""
    def swaps(*pairs):
        p = list(range(2 * n))
        for a, b in pairs:
            p[a], p[b] = p[b], p[a]
        return tuple(p)
    return permutation_group(*(swaps((i, i + 1), (n + i, n + i + 1)) for i in range(n - 1)),
                             swaps((n - 1, 2 * n - 1)))


# built on use, for their size
LARGER_GROUPS = {"S5": lambda: permutation_group((1, 0, 2, 3, 4), (1, 2, 3, 4, 0)),
                 "W(B4)": lambda: signed_permutation_group(4)}


def test_cayley_tree_is_the_greedy_rule():
    # the walk stops at the first candidate that generates Gamma; the oracle
    # walks every candidate: the same generators, and the same tree in order
    groups = presentation_groups() + [A4, D6, S4] + [make() for make in LARGER_GROUPS.values()]
    for gamma in groups:
        gens, tree = gammamod._cayley_tree(gamma)
        want_gens, want_tree = greedy_cayley_tree(gamma)
        assert gens == want_gens
        assert list(tree.items()) == list(want_tree.items())


def assert_sparse(cell):
    assert all(c != 0 for _, _, c in cell)
    assert len({(a, g) for a, g, _ in cell}) == len(cell)


class TestCells:
    """Every cell of ``_resolution`` is a list of triples (a, g, c), with no
    zero c and no (a, g) twice."""

    def test_cells_are_sparse_and_in_range(self):
        for gamma in presentation_groups() + [A4, D6, S4]:
            cells = gammamod._resolution(gamma, 2)
            assert cells[0] == [[(0, s, 1), (0, gamma.identity, -1)]
                                for s in gammamod._cayley_tree(gamma)[0]]
            for below, degree in zip([[None]] + cells, cells):
                for cell in degree:
                    assert_sparse(cell)
                    assert all(0 <= a < len(below) and 0 <= g < gamma.order for a, g, _ in cell)

    def test_fox_triples_match_the_dense_oracle(self):
        for gamma in presentation_groups() + [A4, D6, S4]:
            gens, tree = gammamod._cayley_tree(gamma)
            for edge in non_tree_edges(gamma, gens, tree):
                cell = gammamod._fox_row(gamma, gens, tree, *edge)
                assert_sparse(cell)
                assert (dense(cell, len(gens), gamma.order)
                        == dense_fox_row(gamma, gens, tree, *edge))


class TestSyzygies:
    """The syzygies peeled with the kept relators against the elimination
    of d2 that they replace."""

    def test_basis_of_the_kernel_of_d2(self):
        for gamma in presentation_groups() + [A4, D6, S4]:
            cells = gammamod._resolution(gamma, 2)
            (generators, kept, syzygies), q = cells, gamma.order
            want = fox_kernel_basis(gamma, [dense(cell, len(generators), q) for cell in kept])
            got = mat([[c for row in dense(cell, len(kept), q) for c in row]
                       for cell in syzygies], want.cols)
            assert got.rows == want.rows  # a basis: as many rows as the rank
            assert hermite_basis(got) == want
            assert gammamod._resolution(gamma, 1) == cells[:2]

    def test_no_syzygies_below_degree_two(self):
        assert [len(gammamod._resolution(S4, i)) for i in range(3)] == [1, 2, 3]

    @pytest.mark.parametrize("name, order, h2", [("S5", 120, (2,)), ("W(B4)", 384, (2, 2))])
    def test_h2_trivial_of_larger_groups(self, name, order, h2):
        # H^2(Gamma, Z) is the dual of Gamma^ab: Z/2 for S5, (Z/2)^2 for W(B4)
        gamma = LARGER_GROUPS[name]()
        assert gamma.order == order
        gamma.check()
        m = trivial_module(gamma, FgAbelianGroup.free(1))
        assert group_cohomology(m, 2).invariants() == (0, h2)


def tables_with_identity_and_inverses(rng):
    """Seeded relabellings of groups, each also with one entry off the
    identity's row and column changed and the identity kept in every row,
    and random tables with identity 0 and the identity in every row."""
    groups = all_small_groups() + [A4, D6]
    for _ in range(40):
        table = [list(row) for row in seeded_relabelling(rng.choice(groups), rng).table]
        yield table
        q = len(table)
        e = next(x for x in range(q) if table[x] == list(range(q)))
        cells = [(x, y) for x in range(q) for y in range(q)
                 if e not in (x, y) and table[x][y] != e]
        if cells:
            x, y = rng.choice(cells)
            table = [list(row) for row in table]
            table[x][y] = rng.choice([z for z in range(q) if z != table[x][y]])
            yield table
    for q in range(2, 7):
        for _ in range(10):
            table = [list(range(q))] + [[x] + [rng.randrange(q) for _ in range(q - 1)]
                                        for x in range(1, q)]
            for row in table[1:]:
                if 0 not in row:
                    row[rng.randrange(1, q)] = 0
            yield table


class TestLightsCheck:
    """``FiniteGroup.check`` tests (xy)s = x(ys) only for the generators s
    of the Cayley tree; its verdict is that of every triple."""

    def test_same_verdict_as_every_triple(self):
        verdicts = []
        for table in tables_with_identity_and_inverses(random.Random(31)):
            gamma = FiniteGroup(tuple(map(tuple, table)))
            try:
                gamma.check()
                passed = True
            except InvalidGroupTable as exc:
                assert str(exc) == "associativity fails"
                passed = False
            assert passed == is_associative(gamma)
            verdicts.append(passed)
        assert verdicts.count(True) >= 40 and verdicts.count(False) >= 70

    @pytest.mark.parametrize("table", [
        ((0, 1, 2, 3), (1, 0, 0, 1), (2, 3, 0, 1), (3, 2, 1, 0)),
        ((0, 1, 2, 3), (1, 0, 0, 3), (2, 0, 0, 3), (3, 2, 0, 3)),
        ((0, 1, 2, 3), (1, 0, 0, 3), (2, 0, 0, 3), (3, 0, 0, 3)),
    ], ids=["first", "second", "third"])
    def test_every_generator_is_tested(self, table):
        # each passes (xy)s = x(ys) for the generator s of its tree named
        # by the id, and fails it for another
        gamma = FiniteGroup(table)
        assert not is_associative(gamma)
        with pytest.raises(InvalidGroupTable, match="^associativity fails$"):
            gamma.check()

    def test_non_associative_latin_square(self):
        table = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
                 (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))
        gamma = FiniteGroup(table)
        assert not is_associative(gamma)
        with pytest.raises(InvalidGroupTable, match="^associativity fails$"):
            gamma.check()

    def test_check_keeps_the_tree_for_the_resolution(self):
        gamma = seeded_relabelling(S4, random.Random(4))
        gamma.check()
        tree = gammamod._cayley_tree(gamma)
        group_cohomology(trivial_module(gamma, FgAbelianGroup.free(1)), 2)
        assert gammamod._cayley_tree(gamma) is tree
        # the kept tree is neither compared nor hashed
        fresh = FiniteGroup(gamma.table)
        assert fresh == gamma and hash(fresh) == hash(gamma)


class TestCohomology:
    def test_h0_is_fixed_points(self):
        m = GammaModule(
            cyclic_group(2),
            FgAbelianGroup.free(2),
            (identity(2), mat([[0, 1], [1, 0]])),
        )
        fix, _ = kernel(differential(m, 0))
        assert group_cohomology(m, 0).invariants() == fix.invariants()

    def test_h1_trivial_lattice_vanishes(self):
        for gamma in (cyclic_group(2), cyclic_group(3), dihedral_group(3)):
            m = trivial_module(gamma, FgAbelianGroup.free(2))
            assert group_cohomology(m, 1).is_trivial()

    def test_h2_cyclic(self):
        for n in (2, 3, 4):
            m = trivial_module(cyclic_group(n), FgAbelianGroup.free(1))
            assert group_cohomology(m, 2).invariants() == (0, (n,))

    def test_h1_sign(self):
        assert group_cohomology(sign_module(), 1).invariants() == (0, (2,))

    def test_h2_sign(self):
        assert group_cohomology(sign_module(), 2).is_trivial()

    def test_induced_vanishing(self):
        # Shapiro: Z[Gamma] is induced from the trivial group
        for gamma in all_small_groups() + [A4, D6]:
            m = induced_module(gamma, 1)
            assert group_cohomology(m, 1).is_trivial()
            assert group_cohomology(m, 2).is_trivial()

    @pytest.mark.parametrize("gamma, ab", [(A4, (0, (3,))), (D6, (0, (2, 2))), (S4, (0, (2,)))],
                             ids=["A4", "D6", "S4"])
    def test_h2_trivial_is_abelianization(self, gamma, ab):
        # H^2(Gamma, Z) = Hom(Gamma, Q/Z) = the dual of Gamma^ab
        assert abelianization(gamma) == ab
        m = trivial_module(gamma, FgAbelianGroup.free(1))
        assert group_cohomology(m, 2).invariants() == ab

    def test_d_squared_zero(self):
        m = GammaModule(
            cyclic_group(2),
            Z4,
            (identity(1), mat([[-1]])),
        )
        for i in (0, 1):
            d1 = bar_differential(m, i)
            d2 = bar_differential(m, i + 1)
            assert d1.then(d2).is_zero()

    def test_cochain_group_sizes(self):
        # normalized cochains: one copy of Z^2 per tuple of non-identity elements
        m = trivial_module(cyclic_group(3), FgAbelianGroup.free(2))
        assert cochain_group(m, 0).ambient_rank == 2
        assert cochain_group(m, 1).ambient_rank == 4
        assert cochain_group(m, 2).ambient_rank == 8

    def test_finite_module_cohomology(self):
        # H^1(C2, Z/2 trivial) = Hom(C2, Z/2) = Z/2
        m = trivial_module(cyclic_group(2), FgAbelianGroup(1, mat([[2]])))
        assert group_cohomology(m, 1).invariants() == (0, (2,))


def sign_characters(gamma):
    """Every nontrivial homomorphism Gamma -> {+1, -1}, as a tuple of signs."""
    out = []
    for signs in itertools.product((1, -1), repeat=gamma.order):
        if -1 in signs and all(
            signs[gamma.mul(a, b)] == signs[a] * signs[b]
            for a in gamma.elements() for b in gamma.elements()
        ):
            out.append(signs)
    return out


def small_modules():
    """Every group of order <= 4 and S3, each with trivial Z^2 and Z/4,
    Z[Gamma] and Z[Gamma]^2, and Z and Z/4 twisted by each sign character
    (for C2: the sign module and Z/4 with the generator acting by -1)."""
    c2 = cyclic_group(2)
    groups = [trivial_group(), c2, cyclic_group(3), cyclic_group(4),
              direct_product(c2, c2), dihedral_group(3)]
    for gamma in groups:
        mods = [trivial_module(gamma, FgAbelianGroup.free(2)),
                trivial_module(gamma, Z4),
                induced_module(gamma, 1), induced_module(gamma, 2)]
        for signs in sign_characters(gamma):
            for group in (FgAbelianGroup.free(1), Z4):
                mods.append(GammaModule(gamma, group, tuple(mat([[x]]) for x in signs)))
        yield from mods


# those of ambient rank at most 4, few enough minors for ``in_row_lattice``
SMALL_MODULES = [m for m in small_modules() if m.group.ambient_rank <= 4]


def equivariant_endomorphism(rng: random.Random, m: GammaModule) -> GammaHom:
    """The norm sum_g M_{g^-1} A M_g of a random A, of rank one half the time.
    Every module of ``small_modules`` has relations 4 I or none, so any A is
    well defined."""
    n = m.group.ambient_rank
    if rng.random() < 0.5:
        u, v = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(2))
        a = mat([[x * y for y in v] for x in u], n)
    else:
        a = mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)], n)
    gamma = m.gamma
    norm = zeros(n, n)
    for g in gamma.elements():
        norm = norm + m.actions[gamma.inverse(g)] @ a @ m.actions[g]
    return GammaHom(m, m, norm)


def test_equivariant_kernel_of_random_maps():
    rng = random.Random(5)
    for m in small_modules():
        for _ in range(2):
            f = equivariant_endomorphism(rng, m)
            f.check()
            km, inc = equivariant_kernel(f)
            km.check()
            inc.check()
            assert inc.hom.is_injective()
            assert is_exact_at(inc.hom, f.hom)


class TestAgainstFullBarComplex:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_normalized_matches_full(self, degree):
        for m in small_modules():
            full = full_bar_cohomology(m, degree).invariants()
            assert group_cohomology(m, degree).invariants() == full
            assert normalized_bar_cohomology(m, degree).invariants() == full

    @pytest.mark.parametrize("relabelled", [False, True], ids=["labels", "relabelled"])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_every_group_of_order_at_most_8(self, degree, relabelled):
        # trivial Z, trivial Z/4 and each sign character over Z
        rng = random.Random(degree)
        for gamma in all_small_groups():
            if relabelled:
                gamma = seeded_relabelling(gamma, rng)
            modules = [trivial_module(gamma, FgAbelianGroup.free(1)),
                       trivial_module(gamma, Z4)]
            modules += [GammaModule(gamma, FgAbelianGroup.free(1), tuple(mat([[x]]) for x in s))
                        for s in sign_characters(gamma)]
            for m in modules:
                assert (group_cohomology(m, degree).invariants()
                        == full_bar_cohomology(m, degree).invariants())


class TestEquivariantHoms:
    def _swap(self, n=2):
        return GammaModule(
            cyclic_group(2),
            FgAbelianGroup.free(n),
            (identity(n), mat([[0, 1], [1, 0]])),
        )

    def test_equivariance_detected(self):
        m = self._swap()
        t = trivial_module(cyclic_group(2), FgAbelianGroup.free(1))
        good = GammaHom(m, t, mat([[1], [1]]))
        bad = GammaHom(m, t, mat([[1], [0]]))
        assert good.is_equivariant()
        assert not bad.is_equivariant()

    def test_ill_defined_map_raises(self):
        # x -> x from Z/2 to Z/4 sends the relation 2 to 2, which is not 0 in Z/4
        gamma = cyclic_group(2)
        c2 = trivial_module(gamma, FgAbelianGroup(1, mat([[2]])))
        c4 = trivial_module(gamma, FgAbelianGroup(1, mat([[4]])))
        f = GammaHom(c2, c4, mat([[1]]))
        assert f.is_equivariant()
        with pytest.raises(IllDefinedHom, match="relation lattices"):
            f.check()

    def test_wrong_shape_rejected(self):
        m = self._swap()
        t = trivial_module(cyclic_group(2), FgAbelianGroup.free(1))
        with pytest.raises(DimensionMismatch):
            GammaHom(m, t, mat([[1, 1]]))

    def test_equivariant_kernel(self):
        m = self._swap()
        t = trivial_module(cyclic_group(2), FgAbelianGroup.free(1))
        f = GammaHom(m, t, mat([[1], [1]]))
        km, inc = equivariant_kernel(f)
        km.check()
        assert km.group.invariants() == (1, ())
        # the swap acts by -1 on the anti-diagonal kernel line
        assert km.actions[1].data == ((-1,),)
        assert inc.is_equivariant()

    def test_equivariant_cokernel(self):
        m = self._swap()
        t = trivial_module(cyclic_group(2), FgAbelianGroup.free(2))
        f = GammaHom(m, m, mat([[2, 0], [0, 2]]))
        cm, proj = equivariant_cokernel(f)
        cm.check()
        assert cm.group.invariants() == (0, (2, 2))
        assert proj.is_equivariant()

    def test_unstable_subgroup_rejected(self):
        # the swap moves the first coordinate line off itself
        m = self._swap()
        data = homology_at(None, AbHom(m.group, FgAbelianGroup.free(1), mat([[0], [1]])))
        assert data.gens == mat([[1, 0]])
        with pytest.raises(InvalidAction):
            subquotient_module(m, data)


class TestRandomized:
    def test_random_permutation_modules(self):
        rng = random.Random(11)
        for _ in range(20):
            gamma = rng.choice(
                [cyclic_group(2), cyclic_group(3), dihedral_group(3)]
            )
            m = induced_module(gamma, rng.randint(1, 2))
            m.check()
            d0, d1, z2 = (differential(m, i) for i in (0, 1, 2))
            assert d0.then(d1).is_zero()
            assert d1.then(z2).is_zero()
            fix, _ = kernel(differential(m, 0))
            h0 = group_cohomology(m, 0)
            assert h0.invariants() == fix.invariants()

    def test_pruned_differentials_compose_to_zero(self):
        # groups that keep fewer relators than the presentation has: a d1
        # with a wrong width or a dropped column fails here
        rng = random.Random(16)
        c2 = cyclic_group(2)
        for gamma in (direct_product(direct_product(c2, c2), c2), dihedral_group(4),
                      quaternion_group(), S4):
            gamma = seeded_relabelling(gamma, rng)
            for m in (trivial_module(gamma, FgAbelianGroup.free(1)),
                      trivial_module(gamma, Z4), induced_module(gamma, 1)):
                d0, d1, z2 = (differential(m, i) for i in (0, 1, 2))
                assert d0.then(d1).is_zero()
                assert d1.then(z2).is_zero()


def reference_check(m: GammaModule):
    """The first failure of every test of ``GammaModule.check`` run on every
    element, the identity too, with lattice membership by ``in_row_lattice``;
    None when all pass."""
    rels, n = m.group.relations, m.group.ambient_rank
    if not in_row_lattice(rels, m.actions[m.gamma.identity] - identity(n)):
        return "identity element does not act trivially"
    for g in m.gamma.elements():
        h = AbHom(m.group, m.group, m.actions[g])
        if not in_row_lattice(rels, rels @ m.actions[g]):
            return f"action of element {g} breaks the relations"
        if not h.is_isomorphism():
            return f"action of element {g} is not invertible"
    for g in m.gamma.elements():
        for h in m.gamma.elements():
            lhs = m.actions[h] @ m.actions[g]
            if not in_row_lattice(rels, lhs - m.actions[m.gamma.mul(g, h)]):
                return "composition law fails"
    return None


@st.composite
def _small_actions(draw) -> GammaModule:
    """A group of order at most 3 acting on Z, Z/4, Z^2 or Z/2 + Z/3.  The
    identity acts by 1, by 1 plus relations or by any matrix; every other
    element by a signed identity, a swap or small random entries."""
    gamma = draw(st.sampled_from([trivial_group(), cyclic_group(2), C2_RELABELLED,
                                  cyclic_group(3)]))
    group = draw(st.sampled_from([FgAbelianGroup.free(1), Z4, FgAbelianGroup.free(2),
                                  FgAbelianGroup(2, mat([[2, 0], [0, 3]]))]))
    n, rels = group.ambient_rank, group.relations
    entries = st.integers(-3, 3)
    pool = [identity(n), -identity(n), mat([[0, 1], [1, 0]]) if n == 2 else identity(n)]
    actions = []
    for g in gamma.elements():
        kind = draw(st.sampled_from(["one", "relations", "relations", "any"]
                                    if g == gamma.identity else ["pool", "pool", "any"]))
        if kind == "one":
            m = identity(n)
        elif kind == "relations":
            shift = mat([[draw(entries) for _ in range(rels.rows)] for _ in range(n)], rels.rows)
            m = identity(n) + shift @ rels
        elif kind == "pool":
            m = draw(st.sampled_from(pool))
        else:
            m = mat([[draw(entries) for _ in range(n)] for _ in range(n)], n)
        actions.append(m)
    return GammaModule(gamma, group, tuple(actions))


class TestIdentityShortcuts:
    """``check``, ``is_equivariant`` and ``subquotient_module`` skip the
    identity element or an identity matrix; each agrees with the rule that
    skips nothing."""

    @settings(max_examples=300, deadline=None)
    @given(_small_actions())
    def test_check_fails_first_where_every_element_is_tested(self, m):
        try:
            m.check()
            got = None
        except InvalidAction as exc:
            got = str(exc)
        assert got == reference_check(m)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_MODULES), st.integers(0, 2**32), st.booleans())
    def test_subquotient_actions_agree_with_class_coords(self, m, seed, quotient):
        f = equivariant_endomorphism(random.Random(seed), m)
        if quotient:  # m / im f, degree 0 of [m --f--> m]
            data = homology_at(f.hom, AbHom(m.group, FgAbelianGroup.trivial(),
                                            zeros(m.group.ambient_rank, 0)))
            image = vstack(m.group.relations, f.matrix)
        else:
            data = homology_at(None, f.hom)
            image = m.group.relations
        sub = subquotient_module(m, data)
        for act, got in zip(m.actions, sub.actions):
            c = data.class_coords(data.gens @ act)
            assert got == c
            assert in_row_lattice(image, (got - c) @ data.gens)
            assert in_row_lattice(image, got @ data.gens - data.gens @ act)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_MODULES), st.data())
    def test_is_equivariant_is_the_all_elements_rule(self, source, data):
        target = data.draw(st.sampled_from([t for t in SMALL_MODULES if t.gamma == source.gamma]))
        n, k = source.group.ambient_rank, target.group.ambient_rank
        a = mat([[data.draw(st.integers(-2, 2)) for _ in range(k)] for _ in range(n)], k)
        if data.draw(st.booleans()):  # the norm of a, an equivariant map
            a = sum((source.actions[source.gamma.inverse(g)] @ a @ target.actions[g]
                     for g in source.gamma.elements()), zeros(n, k))
        want = all(in_row_lattice(target.group.relations,
                                  source.actions[g] @ a - a @ target.actions[g])
                   for g in source.gamma.elements())
        assert GammaHom(source, target, a).is_equivariant() == want
