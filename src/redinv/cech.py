"""The cochain complex {F(X) (+) F(G)^i, delta^i} of a map phi: F(X) -> F(G).

Writing a cochain in degree i as (a, b_1, ..., b_i) with a in F(X) and
b_k in F(G), the differentials are

    delta^0(a)                  = (0, phi a)
    delta^{2r}(a, b_1..b_{2r})  = (0, phi a - b_1, 0, b_2 - b_3, 0, ...,
                                   b_{2r-2} - b_{2r-1}, 0, b_{2r})
    delta^{2r+1}(a, b_1..b_{2r+1}) = (a, phi a, b_2, b_2, b_4, b_4, ...,
                                      b_{2r}, b_{2r}, 0)

and the contracting homotopy in degrees >= 2 is

    lambda_i(a, b_1, ..., b_i) = (a, -b_1, b_3, ..., b_i),

which drops b_2 and satisfies delta^{i-1} lambda_i + lambda_{i+1} delta^i = id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intmat import IntMatrix, identity, mat
from .abgrp import (
    AbHom,
    Checks,
    FgAbelianGroup,
    direct_sum,
    homology_at,
    power,
)


MAX_DEGREE_CAP = 8


class DegreeCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class CechInput:
    fx: FgAbelianGroup
    fg: FgAbelianGroup
    phi: AbHom

    def __post_init__(self) -> None:
        if self.phi.source != self.fx or self.phi.target != self.fg:
            raise ValueError("phi must map F(X) to F(G)")

    @staticmethod
    def from_json(obj: dict) -> "CechInput":
        fx = FgAbelianGroup.from_json(obj["fx"])
        fg = FgAbelianGroup.from_json(obj["fg"])
        phi = AbHom(fx, fg, IntMatrix.from_json(obj["phi"], cols=fg.ambient_rank))
        return CechInput(fx, fg, phi)


@dataclass(frozen=True)
class CechComplex:
    inp: CechInput
    max_degree: int
    groups: tuple[FgAbelianGroup, ...]  # C^0 .. C^max_degree
    deltas: tuple[AbHom, ...]  # delta^0 .. delta^{max_degree - 1}


def _assemble(nrows: int, ncols: int, blocks) -> IntMatrix:
    """blocks: list of (row offset, col offset, IntMatrix, sign)."""
    grid = [[0] * ncols for _ in range(nrows)]
    for r0, c0, b, sign in blocks:
        for i in range(b.rows):
            row = b.row(i)
            for j in range(b.cols):
                grid[r0 + i][c0 + j] += sign * row[j]
    return mat(grid, ncols)


def _delta_matrix(inp: CechInput, i: int) -> IntMatrix:
    nx = inp.fx.ambient_rank
    ng = inp.fg.ambient_rank
    phi = inp.phi.matrix
    ide = identity(ng)
    src = nx + i * ng
    tgt = nx + (i + 1) * ng
    blocks = []

    def fg(k: int) -> int:  # offset of the k-th F(G) summand, in rows or in columns
        return nx + (k - 1) * ng

    if i == 0:
        blocks.append((0, fg(1), phi, 1))
    elif i % 2 == 0:
        r = i // 2
        blocks.append((0, fg(1), phi, 1))
        blocks.append((fg(1), fg(1), ide, -1))
        for k in range(1, r):
            blocks.append((fg(2 * k), fg(2 * k + 1), ide, 1))
            blocks.append((fg(2 * k + 1), fg(2 * k + 1), ide, -1))
        blocks.append((fg(2 * r), fg(2 * r + 1), ide, 1))
    else:
        r = (i - 1) // 2
        blocks.append((0, 0, identity(nx), 1))
        blocks.append((0, fg(1), phi, 1))
        for k in range(1, r + 1):
            blocks.append((fg(2 * k), fg(2 * k), ide, 1))
            blocks.append((fg(2 * k), fg(2 * k + 1), ide, 1))
    return _assemble(src, tgt, blocks)


def _lambda_matrix(inp: CechInput, i: int) -> IntMatrix:
    """lambda_i: C^i -> C^{i-1} for i >= 2."""
    nx = inp.fx.ambient_rank
    ng = inp.fg.ambient_rank
    ide = identity(ng)
    src = nx + i * ng
    tgt = nx + (i - 1) * ng
    blocks = [(0, 0, identity(nx), 1), (nx, nx, ide, -1)]
    for k in range(3, i + 1):
        blocks.append((nx + (k - 1) * ng, nx + (k - 2) * ng, ide, 1))
    return _assemble(src, tgt, blocks)


def cochain_group(inp: CechInput, i: int) -> FgAbelianGroup:
    return direct_sum(inp.fx, power(inp.fg, i))


def build_complex(inp: CechInput, max_degree: int) -> CechComplex:
    """C^0 .. C^max_degree; 3 is the least degree whose homotopy identity
    (in degree 2) can be checked."""
    if not 3 <= max_degree <= MAX_DEGREE_CAP:
        raise DegreeCapExceeded(f"max degree must be between 3 and {MAX_DEGREE_CAP}")
    if not inp.phi.is_well_defined():
        raise ValueError("phi does not map the relations of F(X) into those of F(G)")
    groups = tuple(cochain_group(inp, i) for i in range(max_degree + 1))
    deltas = tuple(
        AbHom(groups[i], groups[i + 1], _delta_matrix(inp, i))
        for i in range(max_degree)
    )
    return CechComplex(inp, max_degree, groups, deltas)


def homotopy_map(cx: CechComplex, i: int) -> AbHom:
    if not 2 <= i <= cx.max_degree:
        raise ValueError("homotopy defined for degrees 2 and up")
    return AbHom(cx.groups[i], cx.groups[i - 1], _lambda_matrix(cx.inp, i))


def contraction_check(cx: CechComplex) -> Checks:
    """Verify delta o delta = 0 and the homotopy identity in degrees
    2 <= i <= max_degree - 1."""
    checks = []
    for i in range(cx.max_degree - 1):
        checks.append((f"delta-squared-{i}", cx.deltas[i].then(cx.deltas[i + 1]).is_zero(), None))
    lam = {i: homotopy_map(cx, i) for i in range(2, cx.max_degree + 1)}
    for i in range(2, cx.max_degree):
        combo = lam[i].then(cx.deltas[i - 1]).matrix + cx.deltas[i].then(lam[i + 1]).matrix
        grp = cx.groups[i]
        ok = grp.contains_rows(combo - identity(grp.ambient_rank))
        checks.append((f"homotopy-identity-{i}", ok, None))
    return Checks(tuple(checks))


def cech_cohomology(cx: CechComplex, i: int) -> FgAbelianGroup:
    if not 0 <= i <= cx.max_degree - 1:
        raise ValueError("degree out of range for this complex")
    d_in = cx.deltas[i - 1] if i > 0 else None
    return homology_at(d_in, cx.deltas[i]).group
