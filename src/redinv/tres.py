"""Torus resolutions at the character-lattice level.

A resolution of a reductive datum consists of character modules T* and
R* with a map rho*: R* -> T* whose cone (the two-term complex in
degrees -1, 0) has H^-1 = the character group and H^0 = mu*.  The
canonical resolution is (X --beta--> P); the pushout resolution embeds
the finite group mu' = coker[X -> X_rad (+) P] into an induced torus.
Either way the fundamental complex is ``homcx.two_term_complex(rho*)``.
The pushout presents mu' as P/H, H the Hermite basis of the image of
beta in closed form, with Gamma acting as on P (``_mu_prime``), and
R* is ``equivariant_kernel`` of X_rad (+) T* -> P/H; every lattice it
builds is the one an elimination over X_rad (+) P would give, with the
same Hermite basis.
``SESData.from_json`` reads a short-exact-sequence fixture.
"""

from __future__ import annotations

from .intmat import (
    IntMatrix,
    hermite_basis,
    hstack,
    identity,
    image_basis,
    mat,
    member_coords,
    vstack,
    zeros,
)
from .abgrp import (
    AbHom,
    Checks,
    ExactSequence,
    FgAbelianGroup,
    cokernel,
    exactness,
    image_holds_kernel,
    is_exact_at,
)
from .gammamod import (
    GammaHom,
    GammaModule,
    equivariant_cokernel,
    equivariant_kernel,
    induced_module,
)
from .homcx import (
    ChainMap,
    direct_sum_modules,
    les_of_ses,
    two_term_complex,
)
from .rootdata import (
    InvalidDatum,
    ReductiveDatum,
    from_catalog,
    pairing_map,
    radical_characters,
)
from .value import Value


class TResolutionData(Value):
    """A torus resolution rho*: R* -> T* of a datum, with its maps to and from the ends."""

    # rho_star: R* -> T*; l_star: T* -> mu*; char_map: character group -> R*;
    # provenance: "canonical" | "pushout"
    FIELDS = ("datum", "rho_star", "l_star", "char_map", "provenance")


def canonical_tresolution(d: ReductiveDatum) -> TResolutionData:
    beta = pairing_map(d)
    # the kernel of beta first: its elimination gives the cokernel too
    _, char_map = equivariant_kernel(beta)
    _, l_star = equivariant_cokernel(beta)
    return TResolutionData(d, beta, l_star, char_map, "canonical")


def _orbit_representatives(mu_prime: GammaModule, gens: IntMatrix) -> list[int]:
    """The first row of gens in each orbit of nonzero classes of mu'."""
    grp = mu_prime.group
    moving = [m for m in mu_prime.actions if not m.is_identity()]
    seen: set[tuple[int, ...]] = set()
    reps: list[int] = []
    for j, row in enumerate(gens.data):
        cls = grp.reduce(row)
        if cls in seen or not any(cls):
            continue
        # the actions cover every element of Gamma, so this is the whole orbit
        seen |= {cls} | {grp.reduce((mat([cls]) @ m).data[0]) for m in moving}
        reps.append(j)
    return reps


def _mu_prime(x_rad: GammaModule, beta: GammaHom) -> tuple[GammaModule, IntMatrix]:
    """mu' = coker[X -> X_rad (+) P, chi -> (chi, beta(chi))] as P/H, with
    Gamma acting as on P, and B': the class of (a, p) is p - a B'.

    With S the Hermite basis of the relations of X_rad and B the matrix of
    beta, mu' is Z^n (+) Z^r modulo the rows of [S | 0] and [I | B] (P is
    free).  That lattice holds [0 | S B] = S [I | B] - [S | 0], so its
    Hermite basis is [I | B'; 0 | H] in closed form, H the Hermite basis of
    S B and B' the rows of B reduced by H, and (a, p) - a [I | B'] lies in
    P.  The embedding is injective exactly when H has as many rows as S.
    For a semisimple datum S = I, and H is the image basis of beta, which
    ``pairing_map`` keeps and which holds the rows of B, so B' = 0."""
    (n, r), s = beta.matrix.shape, x_rad.group.relations
    semisimple = s.is_identity()
    if semisimple:
        h = image_basis(beta.matrix, beta.target.group.relations)
    else:
        h = hermite_basis(s @ beta.matrix)
    if h.rows != s.rows:
        raise InvalidDatum("character embedding into X_rad (+) P is not injective")
    p_mod_h = FgAbelianGroup(r, h)
    # the image of beta holds every row of B
    b_prime = zeros(n, r) if semisimple else mat(map(p_mod_h.reduce, beta.matrix.data), r)
    return GammaModule(x_rad.gamma, p_mod_h, beta.target.actions), b_prime


def pushout_tresolution(d: ReductiveDatum) -> TResolutionData:
    """Resolve through the induced torus covering mu' = P/H (``_mu_prime``).

    The generators (e_j, 0) of X_rad and (0, e_c) of P have the classes
    gens = [-B'; I] in P/H.  R* is the kernel of the map X_rad (+) T* ->
    mu' whose rows are -B' and those of s: T* -> mu', the lattice, so the
    Hermite basis, that an elimination modulo [I | B'; 0 | H] would give.
    """
    n = d.datum.rank
    gamma = d.gamma
    q = gamma.order
    x_rad = radical_characters(d)
    mu_prime, b_prime = _mu_prime(x_rad, pairing_map(d))
    gens = vstack(-b_prime, identity(d.datum.semisimple_rank))

    reps = _orbit_representatives(mu_prime, gens)
    k = len(reps)
    t_star = induced_module(gamma, k)
    # s: T* -> mu', basis vector (i, g) -> g . gens[reps[i]], row i of g_reps M_g
    g_reps = mat((gens.row(j) for j in reps), gens.cols)
    moved = [g_reps @ m for m in mu_prime.actions]
    s = mat((g.row(i) for i in range(k) for g in moved), gens.cols)
    src = direct_sum_modules(x_rad, t_star)
    r_star, r_inc = equivariant_kernel(GammaHom(src, mu_prime, vstack(-b_prime, s)))

    # X_0 -> X and mu* are those of the canonical resolution
    canonical = canonical_tresolution(d)
    # chi -> (chi mod rad span, 0), read on the kernel basis as a class is
    x0, chi = canonical.char_map.source, canonical.char_map.matrix
    char_matrix = member_coords(r_inc.matrix, None, hstack(chi, zeros(chi.rows, k * q)))
    if char_matrix is None:
        raise InvalidDatum("character group does not land in R*")

    # rho* = T*-coordinate projection of the kernel inclusion
    rho_matrix = mat((row[n:] for row in r_inc.matrix.data), k * q)
    rho_star = GammaHom(r_star, t_star, rho_matrix)

    # l* = s followed by P/H -> mu* = P/im beta
    l_star = GammaHom(t_star, canonical.l_star.target, s)
    return TResolutionData(d, rho_star, l_star, GammaHom(x0, r_star, char_matrix), "pushout")


def four_term_check(res: TResolutionData) -> Checks:
    """Exactness of 0 -> (G^tor)* -> R* -> T* -> mu* -> 0, and for pushout
    resolutions also of 0 -> R*/(G^tor)* -> T* -> mu* -> 0.

    The induced map R*/(G^tor)* -> T* has the matrix of rho*, so it is
    injective when ker rho* lies in the image of (G^tor)*, the second half
    of exactness at R*, and exact at T* when rho* is: each containment and
    composite is computed once, and every verdict is printed."""
    cm = res.char_map.hom
    rho = res.rho_star.hom
    l = res.l_star.hom
    # ker rho* in the image of the character group, computed even when the
    # composite is not zero, since the quotient's injectivity reads it
    rho_kernel_in_image = image_holds_kernel(cm, rho)
    exact_at_t = is_exact_at(rho, l)
    checks = [
        ("char-map-injective", cm.is_injective(), None),
        ("char-map-equivariant", res.char_map.is_equivariant(), None),
        ("rho-equivariant", res.rho_star.is_equivariant(), None),
        ("l-equivariant", res.l_star.is_equivariant(), None),
        ("exact-at-Rstar", cm.then(rho).is_zero() and rho_kernel_in_image, None),
        ("exact-at-Tstar", exact_at_t, None),
        ("l-star-surjective", l.is_surjective(), None),
    ]
    if res.provenance == "pushout":
        # induced map R*/(G^tor)* -> T* (rho* kills the character group)
        induced = AbHom(cokernel(cm)[0], l.source, rho.matrix)
        checks += [
            ("quotient-map-well-defined", induced.is_well_defined(), None),
            ("quotient-injective", rho_kernel_in_image, None),
            ("quotient-exact-at-Tstar", exact_at_t, None),
        ]
    return Checks(tuple(checks))


def canonical_h_maps(res: TResolutionData) -> tuple[AbHom, AbHom, bool, bool]:
    """The comparison maps X_0 -> H^-1(cone) and H^0(cone) -> mu*, with
    equivariance verdicts."""
    cx = two_term_complex(res.rho_star)
    hm1, h0 = cx.cohomology(-1), cx.cohomology(0)
    h0_data = cx.cohomology_data(0)
    mu = res.l_star.target

    classes = cx.cohomology_data(-1).class_coords(res.char_map.matrix)
    if classes is None:
        raise InvalidDatum("character classes are not rho*-cocycles")
    to_hm1 = GammaHom(res.char_map.source, hm1, classes)
    from_h0 = GammaHom(h0, mu, mat(
        map(mu.group.reduce, (h0_data.gens @ res.l_star.matrix).data), mu.group.ambient_rank))
    return to_hm1.hom, from_h0.hom, to_hm1.is_equivariant(), from_h0.is_equivariant()


class ComparisonVerdict(Value):
    """Whether two resolutions of one datum present the same H^-1 and H^0."""

    FIELDS = ("verdict", "checks")  # verdict: "certified" | "mismatch"

    @property
    def agrees(self) -> bool:
        return self.verdict == "certified"


def compare_resolutions(
    d: ReductiveDatum, res1: TResolutionData, res2: TResolutionData
) -> ComparisonVerdict:
    """Certify that two resolutions present the same H^-1 and H^0: each
    resolution's canonical maps X_0 -> H^-1 and H^0 -> mu* are equivariant
    isomorphisms.  Any other outcome is a mismatch."""
    if res1.datum != d or res2.datum != d:
        raise InvalidDatum("resolutions belong to different data")
    details = []
    for tag, res in (("first", res1), ("second", res2)):
        try:
            to_hm1, from_h0, eq1, eq2 = canonical_h_maps(res)
            ok1 = to_hm1.is_isomorphism() and eq1
            ok2 = from_h0.is_isomorphism() and eq2
        except InvalidDatum:
            ok1 = ok2 = False
        details.append((f"{tag}-H-1-canonical-iso", ok1, None))
        details.append((f"{tag}-H0-canonical-iso", ok2, None))
    checks = Checks(tuple(details))
    return ComparisonVerdict("certified" if checks.passed else "mismatch", checks)


class SESData(Value):
    """A short exact sequence G1 -> G2 -> G3, with X(G3) -> X(G2) -> X(G1)."""

    # part1: the indices of g2's simple roots coming from g1; part3: those from g3
    FIELDS = ("g1", "g2", "g3", "x3_to_x2", "x2_to_x1", "part1", "part3")

    @staticmethod
    def from_json(obj: dict) -> "SESData":
        """The fixture of a parsed SES file, read field by field in the order
        of FIELDS; a malformed one raises ValueError, KeyError or TypeError."""
        g1, g2, g3 = (from_catalog(obj[key]) for key in ("g1", "g2", "g3"))
        x32 = IntMatrix.from_json(obj["x3ToX2"], cols=g2.datum.rank)
        x21 = IntMatrix.from_json(obj["x2ToX1"], cols=g1.datum.rank)
        parts = []
        for field in ("part1", "part3"):
            idx = obj[field]
            if not (isinstance(idx, list) and all(type(i) is int for i in idx)):
                raise ValueError(f"{field}: expected a list of integer root indices")
            parts.append(tuple(idx))
        return SESData(g1, g2, g3, x32, x21, *parts)


def validate_ses_data(s: SESData) -> Checks:
    """The fixture's own checks; a failed shape or partition check ends them."""
    checks = []
    groups = (s.g1, s.g2, s.g3)
    n1, n2, n3 = (g.datum.rank for g in groups)
    r1, r2, r3 = (g.datum.semisimple_rank for g in groups)
    checks.append(("shapes", s.x3_to_x2.shape == (n3, n2)
                   and s.x2_to_x1.shape == (n2, n1), None))
    checks.append(("partition", sorted(s.part1 + s.part3) == list(range(r2))
                   and len(s.part1) == r1 and len(s.part3) == r3, None))
    if not all(ok for _, ok, _ in checks):
        return Checks(tuple(checks))
    x32, x21 = s.x3_to_x2, s.x2_to_x1
    f32 = AbHom(FgAbelianGroup.free(n3), FgAbelianGroup.free(n2), x32)
    f21 = AbHom(FgAbelianGroup.free(n2), FgAbelianGroup.free(n1), x21)
    injective, exact, surjective = exactness(
        (f32, f21), ("lattice-injective", "lattice-exact", "lattice-surjective"))
    checks += [injective, surjective, exact]
    # simple roots and coroots, one row each: x3 -> x2 places g3's roots,
    # x2 -> x1 sends part1's roots onto g1's, and dually on coroots
    roots1, roots2, roots3 = (IntMatrix(g.datum.simple_roots, g.datum.rank) for g in groups)
    co1, co2, co3 = (IntMatrix(g.datum.simple_coroots, g.datum.rank) for g in groups)

    def rows(m: IntMatrix, idx: tuple[int, ...]) -> IntMatrix:
        return IntMatrix(tuple(m.data[k] for k in idx), m.cols)

    checks += [
        ("g3-roots-match", roots3 @ x32 == rows(roots2, s.part3), None),
        ("g1-roots-match", rows(roots2, s.part1) @ x21 == roots1, None),
        ("g3-coroots-match", rows(co2, s.part3) @ x32.transpose() == co3, None),
        ("g1-coroots-match", co1 @ x21.transpose() == rows(co2, s.part1), None),
        # part-1 coroots pair to zero with the image of X3
        ("part1-coroots-kill-x3", (x32 @ rows(co2, s.part1).transpose()).is_zero(), None),
    ]
    # gamma actions commute with the lattice maps
    ok_g = s.g1.gamma == s.g2.gamma == s.g3.gamma
    checks.append(("same-gamma", ok_g, None))
    if ok_g:
        checks.append(("gamma-equivariant", all(
            GammaHom(src.x_module(), tgt.x_module(), x).is_equivariant()
            for src, tgt, x in ((s.g3, s.g2, x32), (s.g2, s.g1, x21))), None))
    return Checks(tuple(checks))


def ses_to_complex_ses(
    s: SESData,
) -> tuple[ChainMap | None, ChainMap | None, Checks, ExactSequence | None]:
    """Build 0 -> pi1D(G3) -> pi1D(G2) -> pi1D(G1) -> 0 and its long
    exact cohomology sequence.

    The checks are the fixture's, then the two chain-map checks, then one
    exact-at-<label> per spot of the sequence.  A failed group ends the
    build, and what it would have built is returned as None.
    """
    checks = list(validate_ses_data(s).entries)
    if not all(ok for _, ok, _ in checks):
        return None, None, Checks(tuple(checks)), None
    c3 = two_term_complex(pairing_map(s.g3))
    c2 = two_term_complex(pairing_map(s.g2))
    c1 = two_term_complex(pairing_map(s.g1))
    r1, r2, r3 = (g.datum.semisimple_rank for g in (s.g1, s.g2, s.g3))
    # degree 0: P3 -> P2 places the g3 coordinates, P2 -> P1 projects
    p32 = mat([[1 if j == s.part3[i] else 0 for j in range(r2)] for i in range(r3)], r2)
    p21 = mat([[1 if s.part1[j] == i else 0 for j in range(r1)] for i in range(r2)], r1)
    i_map = ChainMap(c3, c2, {-1: s.x3_to_x2, 0: p32})
    p_map = ChainMap(c2, c1, {-1: s.x2_to_x1, 0: p21})
    checks.append(("i-chain-map", i_map.is_valid(), None))
    checks.append(("p-chain-map", p_map.is_valid(), None))
    if not all(ok for _, ok, _ in checks):
        return i_map, p_map, Checks(tuple(checks)), None
    les = les_of_ses(i_map, p_map)
    return i_map, p_map, Checks(tuple(checks) + les.checks.entries), les
