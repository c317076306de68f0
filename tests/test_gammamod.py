import itertools
import random

import pytest

from redinv.intmat import DimensionMismatch, hstack, identity, mat, zeros
from redinv.abgrp import (
    AbHom,
    FgAbelianGroup,
    cokernel,
    is_exact_at,
    kernel,
    power,
    subquotient,
)
from redinv.gammamod import (
    FiniteGroup,
    GammaHom,
    GammaModule,
    InvalidAction,
    InvalidGroupTable,
    cyclic_group,
    dihedral_group,
    direct_product,
    equivariant_cokernel,
    equivariant_kernel,
    fox_derivatives,
    group_cohomology,
    induced_module,
    presentation,
    presentation_differential,
    quaternion_group,
    sign_module,
    subquotient_module,
    trivial_group,
    trivial_module,
)

from oracles import (
    bar_differential,
    cochain_group,
    full_bar_cohomology,
    normalized_bar_cohomology,
)

Z4 = FgAbelianGroup(1, mat([[4]]))


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

    def test_torsion_action(self):
        # negation on Z/5 is a valid C2-action
        m = GammaModule(
            cyclic_group(2), FgAbelianGroup(1, mat([[5]])), (identity(1), mat([[-1]]))
        )
        m.check()
        assert m.action_hom(1).apply_coords((2,)) == m.group.reduce((-2,))


class TestFixedPoints:
    def test_trivial_action(self):
        m = trivial_module(cyclic_group(3), FgAbelianGroup.free(2))
        fix, _ = kernel(presentation_differential(m, 0))
        assert fix.invariants() == (2, ())

    def test_sign_action(self):
        fix, _ = kernel(presentation_differential(sign_module(), 0))
        assert fix.is_trivial()

    def test_swap_action(self):
        # C2 swapping the coordinates of Z^2: fixed line (1, 1).
        m = GammaModule(
            cyclic_group(2),
            FgAbelianGroup.free(2),
            (identity(2), mat([[0, 1], [1, 0]])),
        )
        fix, inc = kernel(presentation_differential(m, 0))
        assert fix.invariants() == (1, ())
        # inc and (1, 1) generate the same subgroup: equal quotients of Z^2
        assert cokernel(inc)[0] == FgAbelianGroup(2, mat([[1, 1]]))

    def test_induced_module_fixed_rank(self):
        # fixed points of Z[Gamma] are the norm line, rank 1 per copy
        for gamma in (cyclic_group(4), dihedral_group(3)):
            fix, _ = kernel(presentation_differential(induced_module(gamma, 2), 0))
            assert fix.invariants() == (2, ())

    def test_equals_kernel_of_all_elements(self):
        # the kernel of d0 (one block per generator) is the kernel of the
        # map stacking M_g - 1 for every g: same Hermite basis, same group
        modules = list(small_modules()) + [induced_module(g, 1) for g in all_small_groups()]
        for m in modules:
            ide = identity(m.group.ambient_rank)
            stacked = hstack(*(a - ide for a in m.actions))
            f = AbHom(m.group, power(m.group, m.gamma.order), stacked)
            assert kernel(presentation_differential(m, 0)) == kernel(f)


def presentation_groups():
    """Every group of order <= 8 and three seeded relabellings each of D4
    and Q8, since the presentation depends on the labels."""
    rng = random.Random(8)
    relabelled = [seeded_relabelling(g, rng) for g in (dihedral_group(4), quaternion_group())
                  for _ in range(3)]
    return all_small_groups() + relabelled


def evaluate(gamma, gens, word):
    g = gamma.identity
    for j, x in word:
        g = gamma.mul(g, gens[j] if x > 0 else gamma.inverse(gens[j]))
    return g


class TestPresentation:
    def test_relators_evaluate_to_identity(self):
        for gamma in presentation_groups():
            gens, relators = presentation(gamma)
            assert all(evaluate(gamma, gens, r) == gamma.identity for r in relators)

    def test_relator_count(self):
        for gamma in presentation_groups():
            gens, relators = presentation(gamma)
            assert len(relators) == gamma.order * (len(gens) - 1) + 1

    def test_generator_counts(self):
        # greedy picks: C2 x C2 needs 2, C2^3 needs 3, S3, D4 and Q8 need 2
        counts = [len(presentation(g)[0]) for g in all_small_groups()]
        assert counts == [0, 1, 1, 1, 2, 1, 1, 2, 1, 1, 2, 3, 2, 2]

    def test_cyclic_one_generator_one_relator(self):
        assert presentation(trivial_group()) == ((), ())
        for n in range(2, 9):
            for gamma in (cyclic_group(n), seeded_relabelling(cyclic_group(n), random.Random(n))):
                gens, relators = presentation(gamma)
                assert len(gens) == 1 and len(relators) == 1
                assert relators[0] == ((0, 1),) * n

    def test_fox_fundamental_formula(self):
        # sum_s (d r / d s)(s - 1) = r - 1, which is 0 in Z[Gamma]
        for gamma in presentation_groups():
            gens, relators = presentation(gamma)
            for r in relators:
                total = [0] * gamma.order
                for s, coeffs in zip(gens, fox_derivatives(gamma, gens, r)):
                    for h, c in enumerate(coeffs):
                        total[gamma.mul(h, s)] += c
                        total[h] -= c
                assert total == [0] * gamma.order


class TestCohomology:
    def test_h0_is_fixed_points(self):
        m = GammaModule(
            cyclic_group(2),
            FgAbelianGroup.free(2),
            (identity(2), mat([[0, 1], [1, 0]])),
        )
        fix, _ = kernel(presentation_differential(m, 0))
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
        for gamma in (cyclic_group(2), cyclic_group(3), dihedral_group(3),
                      dihedral_group(4), quaternion_group()):
            m = induced_module(gamma, 1)
            assert group_cohomology(m, 1).is_trivial()
            assert group_cohomology(m, 2).is_trivial()

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
        data = subquotient(mat([[1, 0]]), m.group.relations, zeros(0, 2))
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
            d0, d1, z2 = (presentation_differential(m, i) for i in (0, 1, 2))
            assert d0.then(d1).is_zero()
            assert d1.then(z2).is_zero()
            fix, _ = kernel(presentation_differential(m, 0))
            h0 = group_cohomology(m, 0)
            assert h0.invariants() == fix.invariants()
