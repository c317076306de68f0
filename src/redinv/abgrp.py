"""Finitely generated abelian groups presented as cokernels.

A group is Z^n modulo the lattice spanned by the rows of a relation
matrix, which the group keeps as the Hermite basis of that lattice, its
canonical basis.  So two groups are equal exactly when their lattices
are, and ``reduce`` gives the canonical form of an element, whose
equality is a plain coordinate comparison.  Every yes/no verdict
(triviality, injectivity, exactness) is a lattice membership.
Homomorphisms act on row vectors: f(x) = x @ matrix.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .intmat import (
    DimensionMismatch,
    IntMatrix,
    block_diag,
    echelon_reduce,
    hermite_basis,
    identity,
    image_basis,
    invariant_factors,
    kernel_basis,
    member_coords,
    zeros,
)
from .value import Value


# Largest ambient rank of a group read from JSON, and largest datum rank a
# group spec may ask for.  At rank 64 each paper command takes 0.17-0.27 s
# as one process, of which 0.15 s is the interpreter's start (2 vCPUs,
# Python 3.11), and only ``matrix`` at its size bound takes seconds; an
# unbounded rank would allocate and compute without limit.
MAX_RANK = 64


class IllDefinedHom(ValueError):
    """The matrix does not map the source relations into the target relations."""


class NotComposable(ValueError):
    """target(f) and source(g) differ."""


class FgAbelianGroup(Value):
    """Z^ambient_rank modulo the row lattice of its relations."""

    FIELDS = ("ambient_rank", "relations")

    def __init__(self, ambient_rank: int, relations: IntMatrix) -> None:
        self.__dict__.update(ambient_rank=ambient_rank, relations=relations)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.relations.cols != self.ambient_rank:
            raise DimensionMismatch(
                f"relations of width {self.relations.cols} in ambient Z^{self.ambient_rank}"
            )
        # stored as the certified Hermite basis of the rows given
        # (``hermite_basis``): at most ambient_rank rows, however many the
        # caller or a JSON file lists.
        self.__dict__["relations"] = hermite_basis(self.relations)

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion invariants d1 | d2 | ..., each > 1)."""
        factors = invariant_factors(self.relations)
        return self.ambient_rank - len(factors), tuple(d for d in factors if d > 1)

    def is_trivial(self) -> bool:
        return self.relations.is_identity()

    def order(self) -> Optional[int]:
        rank, torsion = self.invariants()
        if rank:
            return None
        n = 1
        for d in torsion:
            n *= d
        return n

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Canonical representative of coords modulo the relation lattice."""
        if len(coords) != self.ambient_rank:
            raise DimensionMismatch(
                f"coords of length {len(coords)} in ambient Z^{self.ambient_rank}"
            )
        x = list(coords)
        echelon_reduce(self.relations, x)
        return tuple(x)

    def contains_in_relations(self, coords: Sequence[int]) -> bool:
        return not any(self.reduce(coords))

    def contains_rows(self, m: IntMatrix) -> bool:
        """True iff every row of m lies in the relation lattice; a zero row
        does, and is not reduced."""
        if m.data and m.cols != self.ambient_rank:
            raise DimensionMismatch(f"coords of length {m.cols} in ambient Z^{self.ambient_rank}")
        return all(map(self.contains_in_relations, filter(any, m.data)))

    @staticmethod
    def free(n: int) -> "FgAbelianGroup":
        return FgAbelianGroup(n, zeros(0, n))

    @staticmethod
    def trivial() -> "FgAbelianGroup":
        return FgAbelianGroup(0, zeros(0, 0))

    @staticmethod
    def from_json(obj: dict) -> "FgAbelianGroup":
        n = obj["ambientRank"]
        if type(n) is not int or not 0 <= n <= MAX_RANK:
            raise ValueError(f"ambientRank: expected an integer from 0 to {MAX_RANK}, got {n!r}")
        return FgAbelianGroup(n, IntMatrix.from_json(obj["relations"], cols=n))


class AbHom(Value):
    """A homomorphism source -> target, x -> x @ matrix on ambient coordinates."""

    FIELDS = ("source", "target", "matrix")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup, matrix: IntMatrix) -> None:
        if matrix.shape != (source.ambient_rank, target.ambient_rank):
            raise DimensionMismatch(
                f"hom matrix {matrix.shape} between ambients "
                f"{source.ambient_rank} -> {target.ambient_rank}"
            )
        self.__dict__.update(source=source, target=target, matrix=matrix)

    def is_well_defined(self) -> bool:
        return self.target.contains_rows(self.source.relations @ self.matrix)

    def then(self, g: "AbHom") -> "AbHom":
        if g.source != self.target:
            raise NotComposable("target(f) != source(g)")
        return AbHom(self.source, g.target, self.matrix @ g.matrix)

    def is_zero(self) -> bool:
        return self.matrix.is_zero() or self.target.contains_rows(self.matrix)

    def is_injective(self) -> bool:
        """From a free source: the image rows are independent modulo the
        target lattice, so each adds a row to the image basis."""
        rels = self.target.relations
        if not self.source.relations.rows:
            return image_basis(self.matrix, rels).rows == rels.rows + self.matrix.rows
        return self.source.contains_rows(kernel_basis(self.matrix, rels))

    def is_surjective(self) -> bool:
        return cokernel(self)[0].is_trivial()

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()


def kernel(f: AbHom) -> tuple[FgAbelianGroup, AbHom]:
    data = homology_at(None, f)
    return data.group, AbHom(data.group, f.source, data.gens)


def cokernel(f: AbHom) -> tuple[FgAbelianGroup, AbHom]:
    """Target modulo image: the Hermite basis of the target relations and
    the image rows, which f.matrix keeps for a kernel or membership test
    against the target (``image_basis``)."""
    grp = FgAbelianGroup(f.target.ambient_rank, image_basis(f.matrix, f.target.relations))
    return grp, AbHom(f.target, grp, identity(f.target.ambient_rank))


def is_exact_at(f: AbHom, g: AbHom) -> bool:
    """True iff image(f) = kernel(g) inside target(f) = source(g): g kills
    the image, and the image holds the kernel."""
    return f.then(g).is_zero() and image_holds_kernel(f, g)


def image_holds_kernel(f: AbHom, g: AbHom) -> bool:
    """True iff every generator of kernel(g) lies in the lattice of the
    image of f and the relations of source(g)."""
    return cokernel(f)[0].contains_rows(kernel_basis(g.matrix, g.target.relations))


class SubquotientData(Value):
    """A subquotient ker/im with enough data to take classes of elements."""

    # gens: the certified kernel basis, lifts of the generators in the middle
    # ambient; its lattice holds the middle relations and the image
    FIELDS = ("group", "gens")

    def class_coords(self, vecs: IntMatrix) -> Optional[IntMatrix]:
        """Class coordinates of the rows of vecs, or None if one is no cycle.
        A cycle lies in the lattice of gens, so its exact coordinates on
        that basis, read by back-substitution with no solve, are class
        coordinates; a non-cycle has none."""
        return member_coords(self.gens, None, vecs)


def homology_at(d_in: Optional[AbHom], d_out: AbHom) -> SubquotientData:
    """ker(d_out) / im(d_in); d_in may be None for the left edge.

    Every subquotient is built here.  The kernel basis holds the middle
    relations (d_out is well defined) and the image (d_in d_out = 0).  The
    relations are the kernel, on that basis, of the image basis of the
    image rows and the middle relations, which a cokernel reads too; on
    identity generators (H^0 of a two-term complex) they are that basis."""
    ker_gens = kernel_basis(d_out.matrix, d_out.target.relations)
    img = d_in.matrix if d_in is not None else zeros(0, d_out.source.ambient_rank)
    denom = image_basis(img, d_out.source.relations)
    rels = denom if ker_gens.is_identity() else kernel_basis(ker_gens, denom)
    return SubquotientData(FgAbelianGroup(ker_gens.rows, rels), ker_gens)


class Checks(Value):
    """Named verdicts of a verification, each with a witness (or None)."""

    FIELDS = ("entries",)  # (name, ok, witness) triples

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.entries if not ok]

    def verdicts(self) -> dict[str, bool]:
        return {name: ok for name, ok, _ in self.entries}


def exactness(maps: Sequence[AbHom], names: Sequence[str]) -> tuple[tuple[str, bool, Any], ...]:
    """One (name, ok, None) entry per group of 0 -> G_0 -> ... -> G_k -> 0,
    where maps[i]: G_i -> G_{i+1}: injective at G_0, exact at each inner
    group, surjective at G_k."""
    oks = ([maps[0].is_injective()]
           + [is_exact_at(f, g) for f, g in zip(maps, maps[1:])]
           + [maps[-1].is_surjective()])
    return tuple((name, ok, None) for name, ok in zip(names, oks, strict=True))


class ExactSequence(Value):
    """0 -> G_0 -> ... -> G_k -> 0 with maps[i]: G_i -> G_{i+1}, and one
    exact-at-<label> check per group."""

    FIELDS = ("labels", "maps", "groups", "checks")

    def __init__(self, labels: tuple[str, ...], maps: tuple[AbHom, ...]) -> None:
        names = [f"exact-at-{label}" for label in labels]
        self.__dict__.update(labels=labels, maps=maps,
                             groups=tuple(f.source for f in maps) + (maps[-1].target,),
                             checks=Checks(exactness(maps, names)))


def direct_sum(*groups: FgAbelianGroup) -> FgAbelianGroup:
    return FgAbelianGroup(
        sum(g.ambient_rank for g in groups),
        block_diag(*(g.relations for g in groups)),
    )
