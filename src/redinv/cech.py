"""The Cech complex of a torsor X -> S under G, from phi: F(X) -> F(G).

Its degree-i term C^i = F(X) (+) F(G)^i is the group of units of X x G^i
modulo those of S (Rosenlicht; Sansuc, J. reine angew. Math. 327, 1981,
section 6), with F(X) in slot 0 and the k-th F(G) in slot k, and its
differential is the alternating sum

    delta^i = sum_{k=0}^{i+1} (-1)^k d_k^*

of the pullbacks along the face maps d_k: X x G^{i+1} -> X x G^i.  A unit
of X pulls back along the action x g_1 as (a, phi a), and a character of G
along a product g_k g_{k+1} as itself in both factors, so on a cochain
(a, b_1, ..., b_i), with a in F(X) and each b_k in F(G),

    d_0^*      gives (a, phi a, b_1, ..., b_i),
    d_k^*      repeats b_k, in slot k and in slot k + 1 (1 <= k <= i),
    d_{i+1}^*  gives (a, b_1, ..., b_i, 0).

Summed with their signs they give delta^i in closed form: a goes to a
when i is odd, phi a goes to slot 1 (from d_0 alone), b_j goes to
(-1)^j b_j in slot j when i - j is odd, and b_j goes to b_j in slot j + 1
when j is even.  So delta^0(a) = (0, phi a), delta^1(a, b_1) =
(a, phi a, 0) and delta^2(a, b_1, b_2) = (0, phi a - b_1, 0, b_2).  The
contracting homotopy in degrees >= 2 is

    lambda_i(a, b_1, ..., b_i) = (a, -b_1, b_3, ..., b_i),

which drops b_2 and satisfies delta^{i-1} lambda_i + lambda_{i+1} delta^i
= id.  Both are built by one rule, ``_slot_map``: a sum of blocks, each
placed at the offsets of a source and a target slot (``intmat.block_sum``).

So H^0 = ker phi, H^1 = coker phi and H^i = 0 for i >= 2.
``cohomology_groups`` reads each H^i with i >= 2 off the homotopy identity
that ``contraction_check`` verifies: modulo the relations a cocycle x is
(x lambda_i) delta^{i-1} + (x delta^i) lambda_{i+1}, and the second term is
a relation, since x delta^i is one and each block of lambda_{i+1} is +-1
from a slot to a slot of the same group; so x is a coboundary.
``cech_cohomology`` stays the direct route: a subquotient in any degree.
"""

from __future__ import annotations

from typing import Optional

from .intmat import IntMatrix, block_sum, identity
from .abgrp import AbHom, Checks, FgAbelianGroup, direct_sum, homology_at
from .value import Value


MAX_DEGREE_CAP = 8


class DegreeCapExceeded(ValueError):
    pass


class CechInput(Value):
    """A torsor's unit groups F(X), F(G) and the map phi between them."""

    FIELDS = ("fx", "fg", "phi")

    def __init__(self, fx: FgAbelianGroup, fg: FgAbelianGroup, phi: AbHom) -> None:
        if phi.source != fx or phi.target != fg:
            raise ValueError("phi must map F(X) to F(G)")
        self.__dict__.update(fx=fx, fg=fg, phi=phi)

    @staticmethod
    def from_json(obj: dict) -> "CechInput":
        fx = FgAbelianGroup.from_json(obj["fx"])
        fg = FgAbelianGroup.from_json(obj["fg"])
        phi = AbHom(fx, fg, IntMatrix.from_json(obj["phi"], cols=fg.ambient_rank))
        return CechInput(fx, fg, phi)


class CechComplex(Value):
    """The Cech cochain groups C^0 .. C^max_degree of an input and their differentials."""

    # groups: C^0 .. C^max_degree; deltas: delta^0 .. delta^{max_degree - 1}
    FIELDS = ("inp", "max_degree", "groups", "deltas")


def _slot_map(inp: CechInput, i: int, j: int, blocks) -> IntMatrix:
    """The map C^i -> C^j that sends slot s to slot t by c * m, summed over
    the blocks (s, t, m, c), each placed at the offsets of its slots."""
    nx, ng = inp.fx.ambient_rank, inp.fg.ambient_rank
    at = [0] + [nx + k * ng for k in range(max(i, j))]  # the offset of each slot
    return block_sum(nx + i * ng, nx + j * ng, ((at[s], at[t], m, c) for s, t, m, c in blocks))


def _delta_matrix(inp: CechInput, i: int) -> IntMatrix:
    """delta^i: C^i -> C^{i+1}, in the closed form of the face maps."""
    ide = identity(inp.fg.ambient_rank)
    blocks = [(0, 0, identity(inp.fx.ambient_rank), i % 2), (0, 1, inp.phi.matrix, 1)]
    blocks += [(j, j, ide, (-1) ** j) for j in range(1, i + 1) if (i - j) % 2]
    blocks += [(j, j + 1, ide, 1) for j in range(2, i + 1, 2)]
    return _slot_map(inp, i, i + 1, blocks)


def _lambda_matrix(inp: CechInput, i: int) -> IntMatrix:
    """lambda_i: C^i -> C^{i-1} for i >= 2."""
    ide = identity(inp.fg.ambient_rank)
    blocks = [(0, 0, identity(inp.fx.ambient_rank), 1), (1, 1, ide, -1)]
    blocks += [(j, j - 1, ide, 1) for j in range(3, i + 1)]
    return _slot_map(inp, i, i - 1, blocks)


def build_complex(inp: CechInput, max_degree: int) -> CechComplex:
    """C^0 .. C^max_degree; 3 is the least degree whose homotopy identity
    (in degree 2) can be checked."""
    if not 3 <= max_degree <= MAX_DEGREE_CAP:
        raise DegreeCapExceeded(f"max degree must be between 3 and {MAX_DEGREE_CAP}")
    if not inp.phi.is_well_defined():
        raise ValueError("phi does not map the relations of F(X) into those of F(G)")
    groups = [inp.fx]  # C^{i+1} = C^i (+) F(G)
    for _ in range(max_degree):
        groups.append(direct_sum(groups[-1], inp.fg))
    deltas = tuple(
        AbHom(groups[i], groups[i + 1], _delta_matrix(inp, i))
        for i in range(max_degree)
    )
    return CechComplex(inp, max_degree, tuple(groups), deltas)


def _outside(grp: FgAbelianGroup, m: IntMatrix) -> Optional[dict]:
    """The first row of m outside the relations of grp, with its reduced
    coordinates, or None if every row lies in them."""
    for k, row in enumerate(m.data):
        residue = grp.reduce(row)
        if any(residue):
            return {"row": k, "residue": [str(a) for a in residue]}
    return None


def contraction_check(cx: CechComplex) -> Checks:
    """Verify delta o delta = 0 and the homotopy identity in degrees
    2 <= i <= max_degree - 1.  The witness of a failure is the first row
    outside the relations of delta^i delta^{i+1}, or of
    delta^{i-1} lambda_i + lambda_{i+1} delta^i - id, whose row k is what
    the identity makes of the k-th basis vector, minus that vector."""
    checks = []
    d = [delta.matrix for delta in cx.deltas]
    for i in range(cx.max_degree - 1):
        sq = d[i] @ d[i + 1]
        bad = None if sq.is_zero() else _outside(cx.groups[i + 2], sq)
        checks.append((f"delta-squared-{i}", bad is None, bad))
    lam = {i: _lambda_matrix(cx.inp, i) for i in range(2, cx.max_degree + 1)}
    for i in range(2, cx.max_degree):
        combo = lam[i] @ d[i - 1] + d[i] @ lam[i + 1]
        grp = cx.groups[i]
        bad = None if combo.is_identity() else _outside(grp, combo - identity(grp.ambient_rank))
        checks.append((f"homotopy-identity-{i}", bad is None, bad))
    return Checks(tuple(checks))


def cech_cohomology(cx: CechComplex, i: int) -> FgAbelianGroup:
    if not 0 <= i <= cx.max_degree - 1:
        raise ValueError("degree out of range for this complex")
    d_in = cx.deltas[i - 1] if i > 0 else None
    return homology_at(d_in, cx.deltas[i]).group


def cohomology_groups(cx: CechComplex, checks: Checks) -> list[FgAbelianGroup]:
    """H^0 .. H^{max_degree - 1}, given the checks of ``contraction_check``:
    a degree i >= 2 whose homotopy identity passed is acyclic, and every
    other degree is ``cech_cohomology``."""
    contracted = {name for name, ok, _ in checks.entries if ok}
    return [FgAbelianGroup.trivial() if f"homotopy-identity-{i}" in contracted
            else cech_cohomology(cx, i) for i in range(cx.max_degree)]
