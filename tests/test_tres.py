import json
import os
import sys
from pathlib import Path

import pytest

from redinv import abgrp, intmat, tres
from redinv.intmat import (
    IntMatrix, block_diag, hstack, identity, int_from_json, mat, vstack, zeros,
)
from redinv.abgrp import AbHom, FgAbelianGroup, cokernel, direct_sum
from redinv.gammamod import GammaHom, GammaModule, cyclic_group, group_cohomology
from redinv.homcx import identity_chain_map, induced_on_cohomology, two_term_complex
from redinv.catalogio import default_catalog_path
from redinv.rootdata import InvalidDatum, ReductiveDatum, RootDatum, from_catalog
from redinv.tres import (
    SESData,
    canonical_tresolution,
    compare_resolutions,
    four_term_check,
    pushout_tresolution,
    ses_to_complex_ses,
    validate_ses_data,
)
from redinv.rootdata import character_group, mu_dual, pairing_map, radical_characters

from oracles import induced_map, reference_hermite_basis, sl_to_pgl_induced_map
from regen import CATALOG_SPECS, ses_gm_gl_pgl, ses_sl_gl_gm, ses_to_json
from test_intmat import _reference_kernel
from test_random_lattices import _datum, _factors

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

SPECS = [
    "SL(2)", "SL(3)", "PGL(2)", "PGL(3)", "GL(2)", "GL(3)",
    "Sp(4)", "SO(8)", "Spin(8)", "PSO(8)", "G2", "E6ad", "T(2)",
    "SL(3)xGamma:flip", "PGL(3)xGamma:flip",
    "Spin(8)xGamma:triality", "PSO(8)xGamma:triality",
]


class TestCanonicalResolution:
    def test_complex_cohomology_matches_invariants(self):
        for spec in SPECS:
            d = from_catalog(spec)
            cx = two_term_complex(pairing_map(d))
            hm1 = cx.cohomology_data(-1).group
            h0 = cx.cohomology_data(0).group
            assert hm1.invariants() == character_group(d).group.invariants(), spec
            assert h0.invariants() == mu_dual(d).group.invariants(), spec

    def test_four_term(self):
        for spec in SPECS:
            res = canonical_tresolution(from_catalog(spec))
            rep = four_term_check(res)
            assert rep.passed, (spec, rep.failures())

    def test_simply_connected_h0_trivial(self):
        for spec in ("SL(2)", "SL(4)", "Spin(8)", "G2", "F4", "E8"):
            cx = two_term_complex(pairing_map(from_catalog(spec)))
            assert cx.cohomology_data(0).group.is_trivial(), spec


class TestPushoutResolution:
    def test_tstar_ranks(self):
        # one induced summand Z[Gamma] per orbit of generators of mu'
        # (rank 3 = |Gamma| for the triality twist)
        for spec, rank in (("PGL(2)", 1), ("PGL(3)", 2), ("SO(8)", 1),
                           ("PSO(8)xGamma:triality", 3)):
            res = pushout_tresolution(from_catalog(spec))
            assert res.provenance == "pushout"
            assert res.rho_star.target.group.ambient_rank == rank, spec

    def test_mu_prime_finite(self):
        # mu' = coker[X -> X_rad (+) P], chi -> (chi, beta(chi))
        for spec in ("PGL(2)", "PGL(3)", "SO(8)", "PSO(8)xGamma:triality"):
            d = from_catalog(spec)
            n = d.datum.rank
            beta = pairing_map(d)
            target = direct_sum(radical_characters(d).group, beta.target.group)
            emb = AbHom(FgAbelianGroup.free(n), target, hstack(identity(n), beta.matrix))
            mu_prime, _ = cokernel(emb)
            assert mu_prime.order() is not None, spec

    def test_four_term(self):
        for spec in SPECS:
            res = pushout_tresolution(from_catalog(spec))
            rep = four_term_check(res)
            assert rep.passed, (spec, rep.failures())

    @pytest.mark.parametrize("spec", [s for s in SPECS if s != "T(2)"])
    def test_mu_reads_the_kernels_elimination(self, spec, monkeypatch):
        # the cokernel takes the Hermite basis of the image of beta from the
        # state that beta keeps, not from a hermite_basis of its own (a torus
        # has no beta to eliminate).  A square beta keeps that basis first,
        # with no transform, and its zero kernel is read off it with no
        # carried elimination; any other beta's kernel is eliminated, and
        # the basis is read off that elimination.  Every group passes its
        # relations through hermite_basis, so only inputs with no
        # certificate, which it may eliminate, are recorded.
        seen, eliminated = [], []
        hermite_basis, eliminate = abgrp.hermite_basis, intmat._Solve._eliminate

        def recording(m):
            if m._pivots is None:
                seen.append(m)
            return hermite_basis(m)

        def recording_eliminate(s):
            if s.piv is None:
                eliminated.append(s)
            eliminate(s)
        monkeypatch.setattr(abgrp, "hermite_basis", recording)
        monkeypatch.setattr(intmat._Solve, "_eliminate", recording_eliminate)
        d = from_catalog(spec)
        res = pushout_tresolution(d)
        beta = pairing_map(d).matrix
        assert beta not in seen
        assert res.l_star.target.group == FgAbelianGroup(beta.cols, beta)
        square = beta.rows == beta.cols
        assert any(s is beta._solved for s in eliminated) != square

    @pytest.mark.parametrize("spec", CATALOG_SPECS)
    def test_ends_are_the_canonical_resolutions(self, spec):
        # X_0 and mu* are built once, by the canonical resolution
        d = from_catalog(spec)
        push, canon = pushout_tresolution(d), canonical_tresolution(from_catalog(spec))
        assert push.char_map.source == canon.char_map.source
        assert push.l_star.target == canon.l_star.target

    def test_induced_torus_shape(self):
        # with a twist, T* is a module induced from the twisting group
        d = from_catalog("PGL(3)xGamma:flip")
        res = pushout_tresolution(d)
        assert res.rho_star.target.group.ambient_rank % d.gamma.order == 0


class TestComparison:
    def test_certified_for_all_specs(self):
        for spec in SPECS:
            d = from_catalog(spec)
            v = compare_resolutions(
                d, canonical_tresolution(d), pushout_tresolution(d)
            )
            assert v.verdict == "certified", (spec, v.checks)

    def test_non_isomorphic_canonical_map_is_a_mismatch(self):
        # l*: T* -> mu* set to zero makes H^0 -> mu* = Z/2 the zero map
        d = from_catalog("PGL(2)")
        res = canonical_tresolution(d)
        l_star = res.l_star
        zero = GammaHom(l_star.source, l_star.target, zeros(*l_star.matrix.shape))
        v = compare_resolutions(d, res, replace(res, l_star=zero))
        assert v.verdict == "mismatch" and not v.agrees
        assert v.checks.failures() == ["second-H0-canonical-iso"]

    def test_cohomology_agrees(self):
        for spec in ("PGL(4)", "SO(5)", "E7ad"):
            d = from_catalog(spec)
            c1 = two_term_complex(canonical_tresolution(d).rho_star)
            c2 = two_term_complex(pushout_tresolution(d).rho_star)
            for deg in (-1, 0):
                g1 = c1.cohomology_data(deg).group
                g2 = c2.cohomology_data(deg).group
                assert g1.invariants() == g2.invariants(), (spec, deg)

    def test_twisted_fixed_points_agree(self):
        d = from_catalog("Spin(8)xGamma:triality")
        c1 = two_term_complex(canonical_tresolution(d).rho_star)
        c2 = two_term_complex(pushout_tresolution(d).rho_star)
        for deg in (-1, 0):
            f1 = group_cohomology(c1.cohomology(deg), 0)
            f2 = group_cohomology(c2.cohomology(deg), 0)
            assert f1.invariants() == f2.invariants()


class TestSESFixtures:
    def test_gm_gl_pgl_validates(self):
        for n in (2, 3, 4):
            s = ses_gm_gl_pgl(n)
            checks = validate_ses_data(s)
            assert checks.passed, (n, checks.failures())

    def test_sl_gl_gm_validates(self):
        for n in (2, 3, 4):
            s = ses_sl_gl_gm(n)
            checks = validate_ses_data(s)
            assert checks.passed, (n, checks.failures())

    def test_gm_gl_pgl_les(self):
        for n in (2, 3, 4):
            _, _, rep, les = ses_to_complex_ses(ses_gm_gl_pgl(n))
            assert rep.passed, (n, rep.failures())
            invs = [g.invariants() for g in les.groups]
            # H^-1 row: 0 -> Z -> Z; H^0 row: Z/n -> 0 -> 0
            assert invs == [
                (0, ()), (1, ()), (1, ()),
                (0, (n,)) if n > 1 else (0, ()), (0, ()), (0, ()),
            ]

    def test_sl_gl_gm_les(self):
        for n in (2, 3, 4):
            _, _, rep, les = ses_to_complex_ses(ses_sl_gl_gm(n))
            assert rep.passed, (n, rep.failures())
            invs = [g.invariants() for g in les.groups]
            # H^-1 row: Z (scaling characters) -> Z (GL determinant) -> 0;
            # H^0 row is zero since mu*(SL(n)) is trivial
            assert invs == [
                (1, ()), (1, ()), (0, ()),
                (0, ()), (0, ()), (0, ()),
            ]

    def test_connecting_map_is_multiplication_by_n(self):
        # in the scaling-torus sequence the H^-1(G1) -> H^0(G3) connecting
        # map Z -> Z/n is surjective, matching multiplication by a unit
        for n in (2, 3, 5):
            _, _, rep, les = ses_to_complex_ses(ses_gm_gl_pgl(n))
            conn = [m for k, m in enumerate(les.maps) if k % 3 == 2]
            nontrivial = [m for m in conn if not m.is_zero()]
            assert len(nontrivial) == 1
            assert nontrivial[0].is_surjective()

    def test_broken_fixture_detected(self):
        s = ses_gm_gl_pgl(3)
        bad = SESData(
            s.g1, s.g2, s.g3,
            mat([[1, 0, 0], [0, 1, 0]]),  # not the root embedding
            s.x2_to_x1, s.part1, s.part3,
        )
        checks = validate_ses_data(bad)
        assert not checks.passed
        failed = checks.failures()
        assert "g3-roots-match" in failed or "lattice-exact" in failed


def ses_from_text(text: str) -> SESData:
    return SESData.from_json(json.loads(text, parse_int=int_from_json))


class TestSesSerialization:
    def test_round_trip(self):
        s = ses_gm_gl_pgl(3)
        back = ses_from_text(ses_to_json(s))
        assert back.x3_to_x2.data == s.x3_to_x2.data
        assert back.x2_to_x1.data == s.x2_to_x1.data
        assert back.part1 == s.part1 and back.part3 == s.part3
        assert validate_ses_data(back).passed

    def test_shipped_fixtures_valid(self):
        data_dir = os.path.join(
            os.path.dirname(os.path.dirname(default_catalog_path())), "data"
        )
        names = sorted(
            f for f in os.listdir(data_dir) if f.startswith("ses_")
        )
        assert len(names) == 10
        for name in names:
            with open(os.path.join(data_dir, name), encoding="utf-8") as fh:
                s = ses_from_text(fh.read())
            checks = validate_ses_data(s)
            assert checks.passed, (name, checks.failures())

    def test_byte_identical(self):
        s = ses_gm_gl_pgl(2)
        assert ses_to_json(s) == ses_to_json(ses_from_text(ses_to_json(s)))

    # one malformed field each, in a fixture of GL(2) over T(1) and PGL(2)
    @pytest.mark.parametrize("change, error, message", [
        ({"part1": 0}, ValueError, "part1: expected a list of integer root indices"),
        ({"part3": [True]}, ValueError, "part3: expected a list of integer root indices"),
        ({"g2": 7}, TypeError, "not iterable"),
        ({"x2ToX1": [["1"], []]}, ValueError, "row of length 0 in matrix with 1 columns"),
    ], ids=["non-list-part1", "bool-index", "number-spec", "short-row"])
    def test_malformed_field_raises(self, change, error, message):
        obj = json.loads(ses_to_json(ses_gm_gl_pgl(2)), parse_int=int_from_json)
        with pytest.raises(error, match=message):
            SESData.from_json({**obj, **change})


def _flipped(d: ReductiveDatum, m) -> ReductiveDatum:
    """d with Gamma = Z/2 acting on X by m."""
    return ReductiveDatum(d.name, d.datum, cyclic_group(2), (identity(d.datum.rank), m))


def replace(value, **changes):
    """A new value of the same class with some fields changed, built through
    its ``__init__`` from one value per field in ``FIELDS`` order."""
    assert set(changes) <= set(value.FIELDS), sorted(set(changes) - set(value.FIELDS))
    return type(value)(*(changes.get(name, getattr(value, name)) for name in value.FIELDS))


def _with_coroots(d: ReductiveDatum, coroots) -> ReductiveDatum:
    return replace(d, datum=replace(d.datum, simple_coroots=coroots))


_SWAP = mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # on X(GL(3)): e0 <-> e2

# Each fixture breaks one check of validate_ses_data (named by its key),
# and fails exactly the listed checks.  The base fixtures are
# T(1) -> GL(3) -> PGL(3) (x3 -> x2 places the roots) and
# SL(3) -> GL(3) -> T(1) (x3 -> x2 is the scaling character).
_GM, _SL = ses_gm_gl_pgl(3), ses_sl_gl_gm(3)
BROKEN_SES = {
    "lattice-injective": (replace(_SL, x3_to_x2=mat([[0, 0, 0]])),
                          ["lattice-injective", "lattice-exact"]),
    "lattice-surjective": (replace(_GM, x2_to_x1=mat([[2], [2], [2]])),
                           ["lattice-surjective"]),
    "g3-roots-match": (replace(_GM, part3=(1, 0)), ["g3-roots-match", "g3-coroots-match"]),
    "g1-roots-match": (replace(_SL, part1=(1, 0)), ["g1-roots-match", "g1-coroots-match"]),
    "g3-coroots-match": (replace(_GM, g3=_with_coroots(_GM.g3, ((2, -1), (-1, 3)))),
                         ["g3-coroots-match"]),
    "g1-coroots-match": (replace(_SL, g1=_with_coroots(_SL.g1, ((1, 0), (0, 2)))),
                         ["g1-coroots-match"]),
    "part1-coroots-kill-x3": (replace(_SL, x3_to_x2=mat([[1, 0, 0]])),
                              ["lattice-exact", "part1-coroots-kill-x3"]),
    # the flip of X(GL(3)) moves the roots of PGL(3); fixing X(PGL(3)) breaks x3 -> x2
    "gamma-equivariant": (replace(_GM, g1=_flipped(_GM.g1, identity(1)),
                                  g2=_flipped(_GM.g2, _SWAP), g3=_flipped(_GM.g3, identity(2))),
                          ["gamma-equivariant"]),
    "twisted-and-equivariant": (
        replace(_GM, g1=_flipped(_GM.g1, identity(1)), g2=_flipped(_GM.g2, _SWAP),
                g3=_flipped(_GM.g3, mat([[0, -1], [-1, 0]]))),
        []),
}


@pytest.mark.parametrize("name", sorted(BROKEN_SES))
def test_broken_ses_fails_exactly_its_checks(name):
    s, failed = BROKEN_SES[name]
    assert validate_ses_data(s).failures() == failed


class TestInducedMaps:
    def test_sl_to_pgl(self):
        for n in (2, 3, 4):
            u = sl_to_pgl_induced_map(n)
            u.check()
            # H^0: mu*(PGL(n)) = Z/n -> mu*(SL(n)) = 0
            f = induced_on_cohomology(u, 0)
            assert f.target.is_trivial()
            g = induced_on_cohomology(u, -1)
            assert g.source.is_trivial()

    def test_incompatible_data_rejected(self):
        sl = from_catalog("SL(3)")
        pgl = from_catalog("PGL(3)")
        with pytest.raises(InvalidDatum):
            induced_map(pgl, sl, identity(2), identity(2))

    def test_functoriality_through_gl(self):
        # on cohomology, the SL(3) -> PGL(3) map followed by the identity is itself
        u = sl_to_pgl_induced_map(3)
        ide = identity_chain_map(u.target)
        for n in (-1, 0):
            f = induced_on_cohomology(u, n)
            g = f.then(induced_on_cohomology(ide, n))
            assert f.target.contains_rows(g.matrix - f.matrix)


def _stacked_mu_prime(d: ReductiveDatum) -> GammaModule:
    """mu' on the n + r generators of X_rad (+) P, built apart from
    ``tres``: the relations of ``_stacked_mu_prime_relations``, and each
    element of Gamma acting by the block sum of its actions on X_rad and
    on P."""
    x_rad, p = radical_characters(d), pairing_map(d).target
    relations = _stacked_mu_prime_relations(d)
    return GammaModule(d.gamma, FgAbelianGroup(relations.cols, relations),
                       tuple(map(block_diag, x_rad.actions, p.actions)))


def _reps_by_reducing_every_generator(mu_prime) -> list[int]:
    """The first generator of each orbit of nonzero classes, with every
    generator and every image under every action reduced."""
    grp = mu_prime.group
    seen, reps = set(), []
    for j, e_j in enumerate(identity(grp.ambient_rank).data):
        cls = grp.reduce(e_j)
        if cls in seen or not any(cls):
            continue
        seen |= {grp.reduce((mat([cls]) @ m).data[0]) for m in mu_prime.actions}
        reps.append(j)
    return reps


def _stacked_t_star_rows(mu_prime) -> IntMatrix:
    """T* -> mu' on the stacked generators: for the basis vector (i, g) of
    T*, row reps[i] of M_g, reps those of ``_reps_by_reducing_every_generator``."""
    reps = _reps_by_reducing_every_generator(mu_prime)
    return mat([m.row(j) for j in reps for m in mu_prime.actions], mu_prime.group.ambient_rank)


# each family of the benchmark's rank_sweep workload at its least rank
RANK_SWEEP_SPECS = [workloads.classical(family, ranks.start)[0]
                    for family, (ranks, _) in workloads.RANK_SWEEP_FAMILIES.items()]

RANDOM_SEEDS = range(100)


@pytest.mark.parametrize("spec", CATALOG_SPECS + RANK_SWEEP_SPECS)
def test_orbit_representatives_match_reducing_every_generator(spec, monkeypatch):
    calls = []
    real = tres._orbit_representatives
    monkeypatch.setattr(tres, "_orbit_representatives",
                        lambda mu_prime, gens: calls.append(real(mu_prime, gens)) or calls[-1])
    d = from_catalog(spec)
    pushout_tresolution(d)
    assert calls == [_reps_by_reducing_every_generator(_stacked_mu_prime(d))]


@pytest.mark.parametrize("case", CATALOG_SPECS + RANK_SWEEP_SPECS + list(RANDOM_SEEDS))
def test_r_star_is_the_reference_kernel_of_the_stacked_map(case, monkeypatch):
    # R* is the kernel of [A | C]: X_rad (+) T* -> mu' modulo the stacked
    # relations of mu', rows (e_i, 0) for X_rad and row reps[i] of M_g for
    # the basis vector (i, g) of T*, by the reference elimination of the
    # whole system; a seed stands for a random datum
    seen = []
    equivariant_kernel = tres.equivariant_kernel

    def recording_kernel(f):
        seen.append(equivariant_kernel(f))
        return seen[-1]
    monkeypatch.setattr(tres, "equivariant_kernel", recording_kernel)
    d = from_catalog(case) if isinstance(case, str) else _datum(*_factors(case))
    pushout_tresolution(d)
    n, mu_prime = d.datum.rank, _stacked_mu_prime(d)
    a = hstack(identity(n), zeros(n, mu_prime.group.ambient_rank - n))
    c = _stacked_t_star_rows(mu_prime)
    # the pushout's own R* first, then that of ``canonical_tresolution``
    assert len(seen) == 2
    assert seen[0][1].matrix == _reference_kernel(vstack(a, c), mu_prime.group.relations)


@pytest.mark.parametrize("spec", CATALOG_SPECS + RANK_SWEEP_SPECS)
def test_l_star_is_the_p_part_of_the_stacked_map(spec):
    # l*: T* -> mu* = P/im beta is the P-part of the stacked T* -> mu'
    # modulo im beta.  Where an X_rad generator is a representative (GL(n))
    # its rows are -B'_j M_g in l* and 0 in that P-part
    d = from_catalog(spec)
    res = pushout_tresolution(d)
    n, c = d.datum.rank, _stacked_t_star_rows(_stacked_mu_prime(d))
    c_p = mat((row[n:] for row in c.data), c.cols - n)
    assert res.l_star.matrix.shape == c_p.shape
    assert res.l_star.target.group.contains_rows(res.l_star.matrix - c_p)


def _stacked_mu_prime_relations(d: ReductiveDatum):
    """The Hermite basis, by the reference elimination of
    ``tests/oracles.py``, of the lattice of [S | 0] and [I | B]: S the
    relations of X_rad, B the matrix of beta.  The relations of mu' as
    a cokernel of the embedding X -> X_rad (+) P."""
    n = d.datum.rank
    s, b = radical_characters(d).group.relations, pairing_map(d).matrix
    return reference_hermite_basis(vstack(hstack(s, zeros(s.rows, b.cols)),
                                          hstack(identity(n), b)))


def _closed_form_mu_prime_relations(d: ReductiveDatum):
    """[I | B'; 0 | H], from the P/H and B' that ``_mu_prime`` returns."""
    mu_prime, b_prime = tres._mu_prime(radical_characters(d), pairing_map(d))
    h, n = mu_prime.group.relations, b_prime.rows
    return vstack(hstack(identity(n), b_prime), hstack(zeros(h.rows, n), h))


@pytest.mark.parametrize("spec", CATALOG_SPECS + RANK_SWEEP_SPECS)
def test_closed_form_mu_prime_is_the_stacked_lattices_basis(spec):
    d = from_catalog(spec)
    assert _closed_form_mu_prime_relations(d) == _stacked_mu_prime_relations(d)


def test_random_data_cover_tori():
    # the seeds below hold data with a central torus, like GL(n), and without
    tori = [_factors(seed)[1] for seed in RANDOM_SEEDS]
    assert 0 < tori.count(0) < len(tori)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_closed_form_mu_prime_on_random_lattices(seed):
    d = _datum(*_factors(seed))
    assert _closed_form_mu_prime_relations(d) == _stacked_mu_prime_relations(d)


def test_non_injective_embedding_is_rejected():
    # two coroots along one line: beta = [[1, 1], [0, 0]] has rank 1, and
    # X = Z^2 does not embed into X_rad (+) P
    bad = ReductiveDatum.untwisted("bad", RootDatum(2, ((1, 0), (0, 1)), ((1, 0), (1, 0))))
    n = bad.datum.rank
    beta = pairing_map(bad)
    target = direct_sum(radical_characters(bad).group, beta.target.group)
    assert not AbHom(FgAbelianGroup.free(n), target,
                     hstack(identity(n), beta.matrix)).is_injective()
    with pytest.raises(InvalidDatum, match=r"^character embedding into X_rad \(\+\) P is not "
                                           r"injective$"):
        pushout_tresolution(bad)
