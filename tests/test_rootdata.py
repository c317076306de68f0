import pytest
from hypothesis import given, settings, strategies as st

from redinv.catalogio import datum_invariants, default_catalog_path, load_catalog
from redinv.cli import main
from redinv import intmat
from redinv.intmat import IntMatrix, identity, kernel_basis, mat
from redinv.abgrp import FgAbelianGroup
from redinv.value import Value
from redinv.gammamod import GammaModule, cyclic_group, group_cohomology
from redinv.rootdata import (
    _FAMILIES,
    MAX_SPEC_RANK,
    ReductiveDatum,
    RootDatum,
    UnknownGroupSpec,
    adjoint_datum,
    cartan_matrix,
    character_group,
    from_catalog,
    gl_datum,
    is_finite_cartan_matrix,
    mu_dual,
    pairing_map,
    pi1,
    radical_characters,
    saturation,
    simply_connected_datum,
    torus_datum,
    validate,
    weight_module,
)

from oracles import bareiss_is_finite_cartan, det, root_cartan_matrix
from regen import CATALOG_SPECS
from test_gammamod import reference_check


@st.composite
def _cartan_like(draw):
    """Diagonal 2, off-diagonal entries in {0, -1, ..., -4} with a
    symmetric zero pattern: finite, affine and hyperbolic types."""
    r = draw(st.integers(1, 8))
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            if draw(st.booleans()):
                c[i][j], c[j][i] = -draw(st.integers(1, 4)), -draw(st.integers(1, 4))
    return mat(c, r)


class TestCartanMatrices:
    # |det| of the Cartan matrix is the order of the center lattice quotient
    DETS = {
        ("A", 1): 2, ("A", 2): 3, ("A", 5): 6,
        ("B", 2): 2, ("B", 4): 2,
        ("C", 3): 2,
        ("D", 4): 4, ("D", 5): 4,
        ("E6", 6): 3, ("E7", 7): 2, ("E8", 8): 1,
        ("F4", 4): 1, ("G2", 2): 1,
    }

    def test_determinants(self):
        for (kind, rank), want in self.DETS.items():
            assert abs(det(cartan_matrix(kind, rank))) == want, (kind, rank)

    ORACLE_TYPES = (
        [("A", n) for n in range(1, 13)] + [("B", n) for n in range(2, 13)]
        + [("C", n) for n in range(2, 13)] + [("D", n) for n in range(3, 13)]
        + [(kind, int(kind[1])) for kind in ("E6", "E7", "E8", "F4", "G2")]
        + [(kind, 64) for kind in "ABCD"]
    )

    @pytest.mark.parametrize("kind, rank", ORACLE_TYPES)
    def test_matches_simple_roots_oracle(self, kind, rank):
        # det and the finite-type criterion cannot tell B_n from C_n or see
        # relabelled nodes; the Cartan matrix of the explicit roots can
        assert cartan_matrix(kind, rank) == root_cartan_matrix(kind, rank)

    def test_recognizer_accepts(self):
        for kind, rank in self.DETS:
            assert is_finite_cartan_matrix(cartan_matrix(kind, rank))

    def test_recognizer_rejects(self):
        # affine A1: determinant 0
        assert not is_finite_cartan_matrix(mat([[2, -2], [-2, 2]]))
        # asymmetric vanishing
        assert not is_finite_cartan_matrix(mat([[2, -1], [0, 2]]))
        # wrong diagonal
        assert not is_finite_cartan_matrix(mat([[1]]))
        # positive off-diagonal entry
        assert not is_finite_cartan_matrix(mat([[2, 1], [1, 2]]))

    def test_one_pass_matches_per_minor_det(self):
        # the one elimination pass against one det per leading principal minor
        def minors_positive(c):
            return all(det(mat([[c[i, j] for j in range(k)] for i in range(k)], k)) > 0
                       for k in range(1, c.rows + 1))

        specs = load_catalog(default_catalog_path()).specs()
        cartans = [from_catalog(spec).datum.cartan_pairing() for spec in specs]
        cartans = [c for c in cartans if c.rows]
        cartans += [cartan_matrix(kind, rank) for kind, rank in self.DETS]
        cartans += [cartan_matrix("A", 20), cartan_matrix("D", 30)]
        for c in cartans:
            assert is_finite_cartan_matrix(c) and minors_positive(c)
        not_finite = [
            mat([[2, -2], [-2, 2]]),  # affine A1~: minors 2, 0
            mat([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),  # affine A2~: 2, 3, 0
            mat([[2, -1, -1], [-1, 2, -2], [-1, -2, 2]]),  # hyperbolic: 2, 3, -8
        ]
        for c in not_finite:
            assert not is_finite_cartan_matrix(c) and not minors_positive(c)

    @settings(max_examples=400, deadline=None)
    @given(_cartan_like())
    def test_sparse_check_matches_bareiss(self, c):
        assert is_finite_cartan_matrix(c) == bareiss_is_finite_cartan(c)

    @pytest.mark.parametrize("family", sorted(_FAMILIES, key=str))
    def test_every_family_at_rank_64(self, family):
        (head, parity), (least, rank_of, _) = family, _FAMILIES[family]
        num = next(m for m in range(least, 4 * MAX_SPEC_RANK)
                   if rank_of(m) == MAX_SPEC_RANK and parity in (None, m % 2))
        datum = from_catalog(f"{head}({num})").datum
        assert datum.rank == MAX_SPEC_RANK
        assert is_finite_cartan_matrix(datum.cartan_pairing())

    def test_pairing_bound_rejected(self):
        # <alpha, alpha_check> = -4 never occurs in a finite Cartan matrix
        assert not is_finite_cartan_matrix(mat([[2, -4], [-1, 2]]))


class TestValidation:
    def test_all_specs_validate(self):
        for spec in CATALOG_SPECS:
            d = from_catalog(spec)
            rep = validate(d)
            assert rep.passed, (spec, rep.failures())
            # the action verdict agrees with the check that tests every pair
            assert reference_check(d.x_module()) is None

    def test_bad_pairing_rejected(self):
        # alpha paired with its own coroot must give 2, not 3
        bad = RootDatum(1, ((1,),), ((3,),))
        rep = validate(ReductiveDatum.untwisted("bad", bad))
        assert not rep.passed

    def test_length_mismatch_rejected(self):
        bad = RootDatum(2, ((1, 0),), ((1,),))
        rep = validate(ReductiveDatum.untwisted("bad", bad))
        assert not rep.passed
        assert "vector-lengths" in rep.failures()

    def test_non_invertible_action_rejected(self):
        d = ReductiveDatum("bad", torus_datum(1), cyclic_group(2), (identity(1), mat([[2]])))
        rep = validate(d)
        assert rep.failures() == ["action-valid"]
        assert ("action-valid", False, "action of element 1 is not invertible") in rep.entries

    def test_action_check_bug_propagates(self, monkeypatch):
        # only InvalidAction is a verdict; any other error in the check is a bug
        def broken(_module):
            raise ZeroDivisionError("bug")

        monkeypatch.setattr(GammaModule, "check", broken)
        with pytest.raises(ZeroDivisionError):
            validate(from_catalog("SL(3)"))

    def test_unknown_spec(self):
        with pytest.raises(UnknownGroupSpec):
            from_catalog("Sporadic(1)")
        with pytest.raises(UnknownGroupSpec):
            from_catalog("SL(3)xGamma:unknown-twist")

    def test_spec_rank_bound(self):
        # one spec at the bound for each way a spec's number gives its rank
        for spec in ("T(64)", "SL(65)", "Sp(128)"):
            assert from_catalog(spec).datum.rank == MAX_SPEC_RANK
        for spec in ("T(65)", "GL(65)", "SL(66)", "PGL(66)", "Sp(130)", "SO(130)",
                     "SO(131)", "Spin(130)", "PSO(130)", "SL(200000)"):
            with pytest.raises(UnknownGroupSpec):
                from_catalog(spec)
        assert from_catalog("PGL(60)").datum.rank == 59


class TestIdentityActions:
    """An element acting by the identity matrix permutes distinct roots by
    the identity, found without moving a root; repeated roots and roots of
    the wrong length take the product and keep its verdict."""

    @pytest.mark.parametrize("spec", ("GL(4)", "Sp(6)", "SL(3)xGamma:flip",
                                      "PSO(8)xGamma:triality"))
    def test_identity_element_moves_no_root(self, spec, monkeypatch):
        d = from_catalog(spec)
        r = d.datum.semisimple_rank
        products = []
        real = IntMatrix.__matmul__
        monkeypatch.setattr(IntMatrix, "__matmul__",
                            lambda a, b: products.append((a.shape, b.shape)) or real(a, b))
        # a fresh datum: the identity element's permutation is found, not kept
        assert d.root_permutation(0) == tuple(range(r))
        assert not products
        assert validate(d).passed
        # the product's answer, from the roots moved by hand
        for g, m in enumerate(d.actions):
            moved_roots = [tuple(sum(a[i] * m[i, j] for i in range(m.rows))
                                 for j in range(m.cols)) for a in d.datum.simple_roots]
            assert d.root_permutation(g) == tuple(map(d.datum.simple_roots.index, moved_roots))

    @pytest.mark.parametrize("roots", [
        pytest.param(((1, 0), (1, 0)), id="repeated"),
        pytest.param(((1, 0, 0),), id="too-long"),
        pytest.param(((1,),), id="too-short"),
    ])
    def test_malformed_roots_take_the_loop(self, roots):
        d = ReductiveDatum.untwisted("bad", RootDatum(2, roots, roots))
        assert d.root_permutation(0) is None
        assert not validate(d).passed


class TestInvariantsUntwisted:
    def test_sl_n(self):
        for n in (2, 3, 4):
            d = from_catalog(f"SL({n})")
            assert character_group(d).group.is_trivial()
            assert mu_dual(d).group.invariants() == (0, ()) or mu_dual(d).group.is_trivial()
            assert pi1(d).group.is_trivial()

    def test_pgl_n(self):
        for n in (2, 3, 4):
            d = from_catalog(f"PGL({n})")
            assert mu_dual(d).group.invariants() == (0, (n,))
            assert pi1(d).group.invariants() == (0, (n,))

    def test_gl_n(self):
        d = from_catalog("GL(3)")
        assert character_group(d).group.invariants() == (1, ())
        assert mu_dual(d).group.is_trivial()
        assert pi1(d).group.invariants() == (1, ())
        assert radical_characters(d).group.invariants() == (1, ())

    def test_torus(self):
        d = from_catalog("T(2)")
        assert character_group(d).group.invariants() == (2, ())
        assert mu_dual(d).group.is_trivial()
        assert pi1(d).group.invariants() == (2, ())

    def test_adjoint_mu_equals_center_order(self):
        cases = [("A", 3, 4), ("B", 3, 2), ("C", 2, 2), ("D", 4, 4),
                 ("E6", 6, 3), ("E7", 7, 2), ("E8", 8, 1), ("F4", 4, 1), ("G2", 2, 1)]
        for kind, rank, order in cases:
            d = ReductiveDatum.untwisted("x", adjoint_datum(kind, rank))
            assert mu_dual(d).group.order() == order, (kind, rank)
            assert pi1(d).group.order() == order

    def test_simply_connected_mu_trivial(self):
        for kind, rank in [("A", 2), ("B", 3), ("D", 4), ("E6", 6), ("G2", 2)]:
            d = ReductiveDatum.untwisted("x", simply_connected_datum(kind, rank))
            assert mu_dual(d).group.is_trivial()
            assert pi1(d).group.is_trivial()

    def test_spin_vs_so_odd(self):
        spin = from_catalog("Spin(7)")
        so = from_catalog("SO(5)")
        assert mu_dual(spin).group.is_trivial()
        assert mu_dual(so).group.invariants() == (0, (2,))

    def test_so_even(self):
        d = from_catalog("SO(8)")
        assert mu_dual(d).group.invariants() == (0, (2,))
        assert pi1(d).group.invariants() == (0, (2,))

    def test_pso_even(self):
        d = from_catalog("PSO(8)")
        assert mu_dual(d).group.invariants() == (0, (2, 2))

    def test_odd_so_center(self):
        # SO(2n+1) is adjoint type B: mu* = Z/2
        d = ReductiveDatum.untwisted("x", adjoint_datum("B", 4))
        assert mu_dual(d).group.invariants() == (0, (2,))


class TestTwisted:
    def test_flip_fixed_points(self):
        d = from_catalog("PGL(3)xGamma:flip")
        fix = group_cohomology(mu_dual(d), 0)
        # the flip inverts Z/3, so nothing nontrivial is fixed
        assert fix.is_trivial()

    def test_flip_character_group_sl(self):
        d = from_catalog("SL(3)xGamma:flip")
        assert character_group(d).group.is_trivial()
        assert mu_dual(d).group.is_trivial()

    def test_triality_on_pso8(self):
        d = from_catalog("PSO(8)xGamma:triality")
        m = mu_dual(d)
        assert m.group.invariants() == (0, (2, 2))
        fix = group_cohomology(m, 0)
        assert fix.is_trivial()

    def test_triality_preserves_roots(self):
        d = from_catalog("Spin(8)xGamma:triality")
        for g in d.gamma.elements():
            assert d.root_permutation(g) is not None

    def test_flip_h1_of_characters(self):
        # X(GL2-like torus) with coordinate swap: H^1 vanishes
        d = from_catalog("SL(3)xGamma:flip")
        x = d.x_module()
        x.check()
        assert group_cohomology(x, 1).invariants()[0] == 0


    def test_dual_action_is_inverse_transpose(self, monkeypatch):
        # every catalog spec, every spec of the reach corpus in
        # tests/test_hygiene.py and both twists; no elimination runs
        specs = set(load_catalog(default_catalog_path()).specs())
        specs |= {f"{head}({least + 2})" for (head, _), (least, _, _) in _FAMILIES.items()}
        specs |= {"G2", "SL(3)xGamma:flip", "PSO(8)xGamma:triality"}
        data = [from_catalog(spec) for spec in sorted(specs)]
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        for d in data:
            duals = d.dual_actions()
            assert len(duals) == len(d.actions) == d.gamma.order
            for m, dual in zip(d.actions, duals):
                assert m @ dual.transpose() == identity(d.datum.rank), d.name


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(0, 1), st.data())
def test_saturation_is_the_double_complement(n, short, data):
    # square rows of full rank take the rank test, all others the complement
    k = n - short
    rows = mat([[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)], n)
    want = kernel_basis(kernel_basis(rows.transpose()).transpose())
    assert saturation(rows) == want


def matrices(obj, found=None) -> dict[int, IntMatrix]:
    """Every IntMatrix reachable from obj through the attributes of value
    objects (kept ones too), tuples, lists and dict values, by id; a
    matrix's own memos are not walked."""
    found = {} if found is None else found
    if isinstance(obj, IntMatrix):
        found[id(obj)] = obj
    elif isinstance(obj, Value):
        for x in vars(obj).values():
            matrices(x, found)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            matrices(x, found)
    elif isinstance(obj, dict):
        for x in obj.values():
            matrices(x, found)
    return found


KEPT_SPECS = ("SL(3)", "PGL(4)", "GL(3)", "Sp(6)", "E6sc", "SL(3)xGamma:flip",
              "PSO(8)xGamma:triality")


class TestKeptPerDatum:
    """A datum builds its pairing map once, and what it keeps is its own."""

    @pytest.mark.parametrize("spec", KEPT_SPECS + ("T(2)",))
    def test_pairing_map_is_built_once(self, spec):
        d = from_catalog(spec)
        beta = pairing_map(d)
        assert pairing_map(d) is beta and weight_module(d) == beta.target
        assert d.root_permutation(0) == d.root_permutation(0)

    @pytest.mark.parametrize("spec", KEPT_SPECS)
    def test_cokernel_reads_the_kernels_elimination(self, spec, monkeypatch):
        # a torus has no coroots, and its kernel needs no elimination; a
        # square beta keeps its image basis first, and its zero kernel is
        # read off it with no carried elimination
        d = from_catalog(spec)
        character_group(d)
        beta = pairing_map(d)
        rels = beta.target.group.relations
        solved = beta.matrix._solved
        assert solved.rels is rels
        assert (solved.piv is None) == (beta.matrix.rows == beta.matrix.cols)
        want = intmat.hermite_basis(intmat.vstack(rels, beta.matrix))
        with monkeypatch.context() as m:
            m.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
            assert intmat.image_basis(beta.matrix, rels) == want
        n, r = d.datum.rank, d.datum.semisimple_rank
        coroots = mat(d.datum.simple_coroots, n)
        assert mu_dual(d).group == FgAbelianGroup(r, coroots.transpose())

    @pytest.mark.parametrize("spec", KEPT_SPECS + ("T(2)",))
    def test_calls_share_no_matrix(self, spec):
        first, second = from_catalog(spec), from_catalog(spec)
        for d in (first, second):
            datum_invariants(d)
            validate(d)
        assert first._kept and second._kept
        # the walk reaches what a datum keeps: its pairing map's matrix
        assert id(pairing_map(first).matrix) in matrices(first)
        assert not matrices(first).keys() & matrices(second).keys()

    @pytest.mark.parametrize("spec", KEPT_SPECS + ("T(2)",))
    def test_kept_state_is_neither_compared_nor_hashed(self, spec):
        d = from_catalog(spec)
        datum_invariants(d)
        parsed = from_catalog(spec)  # a twist's permutation check keeps nothing
        built = ReductiveDatum(parsed.name, parsed.datum, parsed.gamma, parsed.actions)
        assert d._kept and len(d._kept) > len(parsed._kept) and not built._kept
        for fresh in (parsed, built):
            assert d == fresh and hash(d) == hash(fresh)
            assert repr(d) == repr(fresh)


class TestConstructors:
    def test_gl_datum_shape(self):
        rd = gl_datum(3)
        assert rd.rank == 3
        assert len(rd.simple_roots) == 2

    def test_torus_datum(self):
        rd = torus_datum(2)
        assert rd.semisimple_rank == 0

    def test_sc_and_adjoint_are_dual_shapes(self):
        sc = simply_connected_datum("B", 3)
        ad = adjoint_datum("C", 3)
        assert sc.rank == ad.rank == 3

    def test_identity_pairing_sc(self):
        sc = simply_connected_datum("A", 2)
        # coroots are the standard basis in the sc form
        assert sc.simple_coroots == tuple(identity(2).row(i) for i in range(2))


@pytest.mark.parametrize("key", sorted(_FAMILIES, key=str), ids=str)
def test_family_table_row(key, capsys):
    head, parity = key
    least, rank_of, _ = _FAMILIES[key]
    assert from_catalog(f"{head}({least})").datum.rank == rank_of(least)
    # the argument below the least one that the row would take
    bad = [f"{head}({least - (1 if parity is None else 2)})"]
    # and one of the other parity, unless another row of the head takes it
    if parity is not None and (head, 1 - parity) not in _FAMILIES:
        bad.append(f"{head}({least + 1})")
    for spec in bad:
        with pytest.raises(UnknownGroupSpec):
            from_catalog(spec)
        assert main(["invariants", spec]) == 2, spec
        assert not capsys.readouterr().out
