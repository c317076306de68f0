"""Exact integer matrices: Hermite/Smith normal forms, kernels, solving.

Vectors are rows (f(x) = x @ matrix).  One lattice solver gives the
kernel modulo relations ``kernel_basis(m, rels)``, {x : x @ m lies in the
lattice of the rows of rels}, ``member_coords(gens, rels, vecs)``: C @ gens
= vecs modulo it, and ``image_basis(m, rels)``, the Hermite basis of the
rows of m and rels that cokernels and yes/no verdicts read.  Each matrix
keeps one solved state, ``_Solve``, for the last relations it was solved
against.  It starts with a Tietze step (Havas, Holt and Rees, LAA 192,
1993): the rows of m reduced by rels vanish at the unit pivots of rels, so
they are kept on its other columns, against the rest of rels there
(``non_unit_part``), and the rows that reduce to zero are noted.  The
kernel and the coordinates share one elimination of the other rows, each
carrying its own unit vector, with that rest (Cohen, GTM 138, 2.4.3), run
on first need; the state dies with the matrix.  The image basis comes off
that elimination if it ran, is rels when every row of m reduces to zero,
and is otherwise found with no transform on the same columns.  Each of
these is the unique Hermite basis of its lattice, whatever way it is found.

All arithmetic uses Python's arbitrary-precision integers; intermediate
entries of the normal-form reductions routinely exceed any fixed width.
The elimination kernel ``_echelon`` serves every Hermite form but the
packed one of ``hnf`` below.  Its pivots are always chosen with minimal
nonzero absolute value, ties broken by lowest row index, and its Euclid
steps take nearest-integer quotients, so the transform U of ``hnf``,
where it carries the identity along as extra columns, is reproducible.
Its row operations touch only the nonzero entries of the pivot row, so
sparse input (such as the 0/+-1 presentation differentials) costs in
proportion to its nonzeros rather than its width.  Entries above the
pivots are reduced only once the echelon form is done, bottom up, which
keeps the intermediate entries small.  Callers that never read U take
``hermite_basis``, which carries no transform.  ``invariant_factors``
alternates such Hermite bases of a matrix and its transpose; ``snf`` is
the same loop on ``hnf``, carrying U and V, and inherits its
determinism.  ``hnf`` and the lattice solver are the only callers that
carry a transform.  When m has no more rows than columns, ``hnf``
carries row i of I packed into the one integer 2^(s i), with s past a
Hadamard bound on the entries of U for independent rows, and inserts the
rows one at a time into a reduced Hermite form (``_inserted``, Kannan
and Bachem's order), whose entries stay of the size of the minors of
the rows inserted so far.  Each step is linear in that integer, so when
every row finds a pivot, the balanced base-2^s digits of each row's
integer are the entries of U, the unique one; a row that reduces to
zero, or more rows than columns, send ``hnf`` to ``_echelon`` on [m | I],
carried entry by entry.  The solver carries kernel rows, whose entries
have no such bound, so it always carries entry by entry.

``identity(n)`` keeps the rows of each n up to 256 and wraps them in a new
certified matrix on every call, so no solved state passes from one caller
to another.  ``block_sum`` adds up placed blocks (r, k, m, c), c * m with
its top left entry at (r, k), reading each distinct m only over its
nonzero entries, found once per call: the cochain differentials of
``gammamod`` and ``cech`` are such sums.

One rule covers every relation lattice: reduction modulo a lattice reads
its Hermite basis with the certificate ``_pivots``, the (row, column) of
each pivot, and ``hermite_basis(m)`` is the one door to such a basis.  It
returns a certified m as it is, certifies in one pass an m whose nonzero
rows already form the basis, and eliminates any other m.  Code that has
just made a basis certifies it too: ``_echelon`` returns the pivot
columns, so the solver's kernel and image are certified, as are
``identity(n)``, ``zeros(0, n)``, ``block_diag`` of certified parts and
``non_unit_part`` of a certified basis.  The solver takes
``hermite_basis`` of the relations it is given, so it always reduces by a
certified basis, and ``echelon_reduce`` and ``unit_pivots`` read the
certificate of the basis they are given.  Nothing outside this module
reads or writes ``_pivots`` or ``_solved``.
"""

from __future__ import annotations

import operator
from itertools import compress, count
from math import gcd, isqrt, prod
from typing import Iterable, Optional, Sequence

from .value import Value


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


class IntMatrix(Value):
    """Immutable integer matrix in row-major order.

    ``cols`` is stored explicitly so 0-row matrices keep their width.
    """

    FIELDS = ("data", "cols")
    # Work that depends on data alone: ``_pivots`` certifies a Hermite basis
    # (see above), ``_solved`` holds the solved state (``_Solve``: kernel,
    # coordinates and image basis) for the last relations asked for.
    # Neither is compared or printed; each is None until set.
    _pivots: Optional[tuple[tuple[int, int], ...]] = None
    _solved: Optional["_Solve"] = None

    def __init__(self, data: tuple[tuple[int, ...], ...], cols: int) -> None:
        for row in data:
            if len(row) != cols:
                raise DimensionMismatch(f"row of length {len(row)} in matrix with {cols} columns")
        self.__dict__.update(data=data, cols=cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def transpose(self) -> "IntMatrix":
        if not self.data:
            return IntMatrix(((),) * self.cols, 0)
        return IntMatrix(tuple(zip(*self.data)), self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        ocols = other.cols
        out = []
        for r in self.data:
            acc = [0] * ocols
            for a, orow in zip(r, other.data):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return IntMatrix(tuple(out), ocols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return IntMatrix(
            tuple(tuple(map(operator.add, r, s)) for r, s in zip(self.data, other.data)),
            self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(map(operator.neg, r)) for r in self.data), self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def is_identity(self) -> bool:
        """Square with ones on the diagonal and zeros elsewhere, found
        without building a matrix to compare with."""
        n = self.cols
        return self.rows == n and all(
            row[i] == 1 and row.count(0) == n - 1 for i, row in enumerate(self.data))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def to_json(self) -> list[list[str]]:
        """Decimal strings, not numbers: arbitrary precision survives JSON."""
        return [[str(a) for a in r] for r in self.data]

    @staticmethod
    def from_json(obj: Iterable[Iterable[str]], cols: Optional[int] = None) -> "IntMatrix":
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise ValueError("a matrix is a list of rows, each a list")
        return mat(map(_row_from_json, obj), cols)


# Most decimal digits of an input integer: Python's default limit on int/str
# conversion, which the CLI lifts so that results may be longer.
MAX_INPUT_DIGITS = 4300


def int_from_json(a: object) -> int:
    """A JSON integer that is no boolean, or a string of an optional "-"
    and 1 to MAX_INPUT_DIGITS ASCII digits (``isdigit`` alone would take
    "²" or "١" too).  As ``parse_int`` of ``json.loads`` it bounds the
    number literals of a JSON text too."""
    if isinstance(a, str):
        digits = a.removeprefix("-")  # "".isdigit() is False
        if digits.isdigit() and digits.isascii() and len(digits) <= MAX_INPUT_DIGITS:
            return int(a)
    elif type(a) is int:
        return a
    raise ValueError(f"not an integer of at most {MAX_INPUT_DIGITS} digits: {a!r:.80}")


# int_from_json of the decimal strings of -99..99
_SMALL_DECIMALS = {str(i): i for i in range(-99, 100)}


def _row_from_json(row: list) -> tuple[int, ...]:
    """int_from_json of each entry; a row of small decimal strings, such as
    the 0/1 entries of a permutation action, is read by one lookup each."""
    try:
        return tuple(map(_SMALL_DECIMALS.__getitem__, row))
    except (KeyError, TypeError):  # another entry, or one that is no dict key
        return tuple(map(int_from_json, row))


def mat(rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> IntMatrix:
    """The matrix of rows of Python ints; input read from outside the
    program goes through ``int_from_json`` instead."""
    tup = tuple(map(tuple, rows))
    if cols is None:
        if not tup:
            raise ValueError("column count required for an empty matrix")
        cols = len(tup[0])
    return IntMatrix(tup, cols)


# The rows of identity(n) for each n up to the longer side that the
# ``matrix`` command accepts (4 * abgrp.MAX_RANK), built on first use.
_IDENTITY_ROWS: dict[int, tuple[tuple[int, ...], ...]] = {}


def identity(n: int) -> IntMatrix:
    """A new certified n x n identity on every call, so that what one
    caller's matrix keeps (``_solved``) never reaches another's."""
    rows = _IDENTITY_ROWS.get(n)
    if rows is None:
        rows = tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))
        if n <= 256:
            _IDENTITY_ROWS[n] = rows
    return _certify(IntMatrix(rows, n), range(n))


def zeros(r: int, c: int) -> IntMatrix:
    if not r:
        return _certify(IntMatrix((), c), ())
    return IntMatrix(((0,) * c,) * r, c)


def _certify(m: IntMatrix, piv: Iterable[int]) -> IntMatrix:
    """m, a Hermite basis with its pivots in columns piv, certified."""
    m.__dict__["_pivots"] = tuple(enumerate(piv))
    return m


def vstack(*ms: IntMatrix) -> IntMatrix:
    cols = {m.cols for m in ms}
    if len(cols) != 1:
        raise DimensionMismatch(f"vstack of widths {sorted(cols)}")
    return IntMatrix(tuple(r for m in ms for r in m.data), cols.pop())


def hstack(*ms: IntMatrix) -> IntMatrix:
    rows = {m.rows for m in ms}
    if len(rows) != 1:
        raise DimensionMismatch(f"hstack of heights {sorted(rows)}")
    return IntMatrix(tuple(sum(parts, ()) for parts in zip(*(m.data for m in ms))),
                     sum(m.cols for m in ms))


def block_sum(rows: int, cols: int, blocks: Iterable[tuple[int, int, IntMatrix, int]]) -> IntMatrix:
    """The rows x cols sum, over the blocks (r, k, m, c), of c * m with its
    top left entry at (r, k).  Each distinct m is read only over its nonzero
    entries, found once per call, so an identity or permutation block costs
    one entry per row.  A block reaching outside the bounds raises
    DimensionMismatch."""
    out = [[0] * cols for _ in range(rows)]
    alive, supports = [], {}  # supports by id(m); alive keeps each m, so no id is reused
    try:
        for r, k, m, c in blocks:
            if r < 0 or k < 0:
                raise DimensionMismatch(f"block at a negative offset of {rows} x {cols}")
            support = supports.get(id(m))
            if support is None:
                alive.append(m)
                support = supports[id(m)] = [(i, j, x) for i, row in enumerate(m.data)
                                             for j, x in enumerate(row) if x]
            for i, j, x in support:
                out[r + i][k + j] += c * x
    except IndexError:
        raise DimensionMismatch(f"block outside {rows} x {cols}") from None
    return IntMatrix(tuple(map(tuple, out)), cols)


def block_diag(*ms: IntMatrix) -> IntMatrix:
    """The parts on the diagonal; certified when every part is, with each
    part's pivots moved by its row and column offset."""
    total_c = sum(m.cols for m in ms)
    out, piv, offset = [], [], 0
    for m in ms:
        left, right = (0,) * offset, (0,) * (total_c - offset - m.cols)
        out += [left + r + right for r in m.data]
        piv += [offset + j for _, j in m._pivots or ()]
        offset += m.cols
    b = IntMatrix(tuple(out), total_c)
    return _certify(b, piv) if all(m._pivots is not None for m in ms) else b


def _echelon(rows: list[list[int]], c: int) -> list[int]:
    """Bring the first c columns of ``rows`` to row Hermite form in place,
    carrying any further columns along, and return the pivot columns.

    Each pivot has minimal nonzero absolute value in its column, ties
    broken by lowest row index.  The Euclid steps that find it take
    nearest-integer quotients, which leave remainders of at most half the
    pivot and so need fewer steps than floor ones (Knuth, TAOCP vol. 2,
    4.5.3).  A row operation subtracts a multiple of the pivot row over its
    nonzero entries, found once per pivot row and not at all when no
    multiple is nonzero.

    Once the echelon form is done, each pivot row from the last one up is
    reduced by floor quotients into [0, pivot) above the pivots of the
    rows below it, which are reduced already (Cohen, GTM 138, 2.4).  Only
    one unit upper triangular transform brings the echelon rows to Hermite
    form, so the carried columns are those of ``reference_hnf``, which
    reduces above each new pivot by rows not yet reduced.
    """
    r = len(rows)

    def reduce_by(k: int, targets: list[int], col: int) -> None:
        p = rows[k][col]
        p2 = 2 * p
        support = None
        for i in targets:
            q = (2 * rows[i][col] + p) // p2
            if not q or i == k:
                continue
            if support is None:
                support = [(j, x) for j, x in enumerate(rows[k]) if x]
            row = rows[i]
            for j, x in support:
                row[j] -= q * x

    piv: list[int] = []
    for col in range(c):
        pr = len(piv)
        if pr >= r:
            break
        live = [i for i in range(pr, r) if rows[i][col]]
        while len(live) > 1:
            reduce_by(min(live, key=lambda i: abs(rows[i][col])), live, col)
            live = [i for i in live if rows[i][col]]
        if not live:
            continue
        i0 = live[0]
        if i0 != pr:
            rows[pr], rows[i0] = rows[i0], rows[pr]
        if rows[pr][col] < 0:
            rows[pr] = [-x for x in rows[pr]]
        piv.append(col)
    supports: list[Optional[list[tuple[int, int]]]] = [None] * len(piv)
    for i in range(len(piv) - 2, -1, -1):
        row = rows[i]
        for k, col in enumerate(piv[i + 1:], i + 1):
            q = row[col] // rows[k][col]
            if q:
                if supports[k] is None:
                    supports[k] = [(j, x) for j, x in enumerate(rows[k]) if x]
                for j, x in supports[k]:
                    row[j] -= q * x
    return piv


def _xgcd(p: int, a: int) -> tuple[int, int, int]:
    """(g, u, v) with g = u p + v a = gcd(p, a) > 0, for a nonzero a."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while a:
        q, r = divmod(p, a)
        p, a, u0, v0, u1, v1 = a, r, u1, v1, u0 - q * u1, v0 - q * v1
    return (p, u0, v0) if p > 0 else (-p, -u0, -v0)


def _inserted(rows: list[list[int]], c: int) -> Optional[list[list[int]]]:
    """The rows brought to reduced row Hermite form on their first c
    columns, carrying any further columns along, by inserting them one at
    a time into the Hermite form of the rows before them (Kannan and
    Bachem, SIAM J. Comput. 8, 1979); None as soon as a row reduces to zero
    on those columns, that is, when the rows are dependent.

    A row x walks its nonzero columns j in order.  At the pivot p of a row
    y of the form, x loses x_j // p times y when p divides x_j; otherwise,
    with g = u p + v x_j > 0 by the extended gcd, y becomes u y + v x and x
    becomes (p / g) x - (x_j / g) y, a unimodular step.  At the first
    column of no pivot, x joins the form, its pivot made positive.  Then,
    bottom up, each new or changed row is reduced by floor quotients into
    [0, pivot) above the pivots below it, and each other row above the
    pivots of the rows below it from the first new or changed one on, as
    in ``_echelon``.  So the form is always the unique reduced Hermite form
    of the rows inserted so far, with entries of the size of their minors
    (gcd steps alone, with no reduction, let the entries explode).
    A row operation by a row whose pivot is in column j touches the entries
    from j on only, and changes the rows given in place.
    """
    form: list[list[int]] = []
    piv: list[int] = []
    for x in rows:
        changed, t = [], 0
        for j in range(c):
            a = x[j]
            if not a:
                continue
            while t < len(piv) and piv[t] < j:
                t += 1
            if t == len(piv) or piv[t] != j:
                break
            y = form[t]
            p = y[j]
            q, rem = divmod(a, p)
            if rem:
                g, u, v = _xgcd(p, a)
                form[t] = y[:j] + [u * b + v * d for b, d in zip(y[j:], x[j:])]
                pg, ag = p // g, a // g
                x = x[:j] + [pg * d - ag * b for b, d in zip(y[j:], x[j:])]
                changed.append(t)
            else:
                x[j:] = [d - q * b for b, d in zip(y[j:], x[j:])]
        else:
            return None
        form.insert(t, x if x[j] > 0 else [-d for d in x])
        piv.insert(t, j)
        changed.append(t)
        start = None  # the first new or changed row below the current one
        for i in range(len(form) - 1, -1, -1):
            first = i + 1 if i in changed else start
            if i in changed:
                start = i
            if first is None:
                continue
            y = form[i]
            for k in range(first, len(form)):
                j, b = piv[k], form[k]
                q = y[j] // b[j]
                if q:
                    y[j:] = [d - q * e for d, e in zip(y[j:], b[j:])]
    return form


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form.

    Returns (H, U) with H = U @ m, U unimodular, H in row-echelon form
    with positive pivots and entries above each pivot reduced into
    [0, pivot).  U is unique when the rows of m are independent; otherwise
    it is the identity carried along one elimination of [m | I].

    An m of r <= c rows carries row i of I as the one entry 2^(s i) and
    inserts its rows one at a time into a reduced Hermite form
    (``_inserted``), which acts on that entry as it would on the r
    entries.  If every row finds a pivot, in the columns P, then U = H_P
    adj(m_P) / det m_P, and each entry of H_P is at most |det m_P|, so by
    Hadamard |U_ij| <= B, r times the product of the r - 1 largest row
    norms of m (each taken as the integer root of its square, plus 1).
    With s = B.bit_length() + 1 the balanced base-2^s digits of row i's
    entry are row i of U.  The first row that reduces to zero stops the
    insertion, and such an m, like one of r > c, goes to ``_echelon`` on
    [m | I], entry by entry.
    """
    r, c = m.shape
    if r <= c:
        norms = sorted(isqrt(sum(x * x for x in row)) + 1 for row in m.data)
        s = (r * prod(norms[1:])).bit_length() + 1
        rows = _inserted([list(row) + [1 << s * i] for i, row in enumerate(m.data)], c)
        if rows is not None:
            mask, half = (1 << s) - 1, 1 << (s - 1)
            bias = half * ((1 << s * r) - 1) // mask  # half in each of the r slots
            u = [[((x >> s * j) & mask) - half for j in range(r)]
                 for x in (row[c] + bias for row in rows)]
            return mat([row[:c] for row in rows], c), mat(u, r)
    rows = [list(row + e) for row, e in zip(m.data, identity(r).data)]
    _echelon(rows, c)
    return mat([row[:c] for row in rows], c), mat([row[c:] for row in rows], r)


def hermite_basis(m: IntMatrix) -> IntMatrix:
    """The Hermite basis of the lattice of the rows of m, certified.

    A certified m is returned as it is.  When the nonzero rows of m already
    form a Hermite basis (the leading entries are positive and stand in
    strictly increasing columns, and every entry above a pivot lies in
    [0, pivot)), one pass over the columns of those pivots certifies them,
    and they are returned, as m itself when no row is zero: such rows are
    the unique Hermite basis of their lattice.  Any other m gives the
    nonzero rows of its Hermite form, with no transform.  A tall m is taken
    cols rows at a time, each block reduced together with the basis of the
    rows before it, so no elimination has more than 2 * cols rows; the
    Hermite form of a lattice is unique, so the rows are those of one
    elimination of m.
    """
    if m._pivots is not None:
        return m
    piv: list[int] = []
    nonzero, columns = [], None
    for i, row in enumerate(m.data):
        j = next(compress(count(), row), None)
        if j is None:
            continue
        if piv and j <= piv[-1] or row[j] < 0:
            break
        if i:
            columns = columns or list(zip(*m.data))
            above = columns[j][:i]
            if min(above) < 0 or max(above) >= row[j]:
                break
        piv.append(j)
        nonzero.append(row)
    else:
        return _certify(m if len(nonzero) == len(m.data) else IntMatrix(tuple(nonzero), m.cols), piv)
    c, step = m.cols, max(m.cols, 1)
    rows = m.to_lists()
    basis: list[list[int]] = []
    for k in range(0, len(rows), step):
        block = basis + rows[k:k + step]
        piv = _echelon(block, c)
        basis = block[:len(piv)]
    return _certify(mat(basis, c), piv)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form from alternating row and column Hermite forms
    (Kannan and Bachem, SIAM J. Comput. 8, 1979).

    Returns (U, D, V) with D = U @ m @ V, U and V unimodular, D diagonal
    with nonnegative entries satisfying d1 | d2 | ... and zeros last.
    A diagonal that breaks the chain at d_i, d_j (i < j) gets column j
    added to column i before the next pair of Hermite forms.
    """
    # None stands for an identity transform, which no product needs
    a, u, v = m, None, None
    while True:
        if all(x == 0 for i, row in enumerate(a.data) for j, x in enumerate(row) if i != j):
            d = diagonal(a)
            bad = next(((i, j) for i, di in enumerate(d) for j in range(i + 1, len(d))
                        if (d[j] % di if di else d[j])), None)
            if bad is not None:
                v = identity(m.cols) if v is None else v
                a, v = _add_column(a, *bad), _add_column(v, *bad)
            elif all(x >= 0 for x in d):
                break
        h, x = hnf(a)
        h, y = hnf(h.transpose())
        a = h.transpose()
        u = x if u is None else x @ u
        v = y.transpose() if v is None else v @ y.transpose()
    return identity(m.rows) if u is None else u, a, identity(m.cols) if v is None else v


def _add_column(m: IntMatrix, i: int, j: int) -> IntMatrix:
    """m with column j added to column i."""
    return mat([r[:i] + (r[i] + r[j],) + r[i + 1:] for r in m.data], m.cols)


def diagonal(d: IntMatrix) -> tuple[int, ...]:
    return tuple(d.data[i][i] for i in range(min(d.rows, d.cols)))


def unit_pivots(h: IntMatrix) -> dict[int, int]:
    """Column -> row of each pivot equal to 1 of the certified Hermite basis
    h.  The column of a unit pivot is zero in every other row of h."""
    return {j: i for i, j in h._pivots if h.data[i][j] == 1}


def non_unit_part(h: IntMatrix) -> tuple[Sequence[int], IntMatrix]:
    """The columns of the certified Hermite basis h that hold no unit pivot,
    and the rows of h with their pivot there, restricted to those columns:
    a certified Hermite basis again.  A vector that is zero at every unit
    pivot column lies in the lattice of h exactly when its restriction lies
    in the lattice of that part, since a unit pivot's column is zero in
    every other row of h (a Tietze step)."""
    unit = unit_pivots(h)
    if not unit:
        return range(h.cols), h
    keep = [j for j in range(h.cols) if j not in unit]
    rest = [(i, j) for i, j in h._pivots if j not in unit]
    return keep, _certify(mat([[h.data[i][k] for k in keep] for i, _ in rest], len(keep)),
                          [keep.index(j) for _, j in rest])


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Nonzero diagonal of the Smith form, with no transforms.  Each unit
    pivot of the Hermite basis of m gives a factor 1, and its row and
    column drop out (Tietze); the rest, a Hermite basis again, and its
    transpose take Hermite bases in turn until one is diagonal, then
    (gcd, lcm) swaps sort the positive diagonal into a divisibility chain."""
    h = hermite_basis(m)
    keep, a = non_unit_part(h)
    # an echelon form is diagonal when no row has an entry right of it
    while any(any(row[i + 1:]) for i, row in enumerate(a.data)):
        a = hermite_basis(a.transpose())
    d = list(diagonal(a))
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return (1,) * (h.cols - len(keep)) + tuple(d)


def echelon_reduce(h: IntMatrix, x: list[int]) -> list[int]:
    """Subtract x[j] // h[i, j] times row i of h from x, for each pivot (i, j)
    in turn, touching only the row's nonzero entries; return those
    multiples.  h must be a certified Hermite basis (``hermite_basis``):
    its certificate lists the pivots.  A zero x is left as it is."""
    if not any(x):
        return [0] * len(h._pivots)
    qs = []
    for i, j in h._pivots:
        row = h.data[i]
        q = x[j] // row[j]
        qs.append(q)
        if q:
            for k in range(j, len(row)):
                if row[k]:
                    x[k] -= q * row[k]
    return qs


class _Solve:
    """One matrix m solved against one set of relations rels, which m keeps
    for the next call with equal rels.  rels is a certified Hermite basis
    (``_solve`` takes ``hermite_basis`` of the relations given, and zeros(0,
    cols) for none).  Each row of m is reduced by rels, which changes x @ m
    only by lattice vectors and leaves it zero at the unit pivots of rels,
    and kept on the other columns, ``keep``, where the rest of rels is
    ``rest`` (``restrict``, ``non_unit_part``): a vector lies in the lattice
    of rels exactly when its restriction lies in that of rest.  These rows
    are ``rows``.  On first need each nonzero row i is extended by e_i,
    row i of I, the rows of [rest | 0] are put below, and the whole is
    eliminated once and split at the rank: the rows above hold the Hermite
    basis of rows and rest with, carried, how to write it on m modulo rels
    (``image``); the carried part of the rows below, with the e_i of the
    zero rows (``zero``), spans {x : x @ m lies in the lattice of rels}
    (``kernel``, Cohen, GTM 138, 2.4.3).  The kernel and the basis, joined
    to the unit rows of rels, are kept; ``image`` reads the carried rows
    above on each call.  A kept basis of rels.rows + m.rows rows, the most
    there can be, says that the rows of m are independent modulo rels: the
    kernel is zero, and is read off it with no elimination."""

    __slots__ = ("rels", "keep", "rest", "shape", "rows", "zero", "piv", "above", "below",
                 "_kernel", "_basis")

    def __init__(self, m: IntMatrix, rels: IntMatrix) -> None:
        self.rels, self.shape = rels, m.shape
        if rels.rows:
            self.keep, self.rest = non_unit_part(rels)
            self.rows = list(map(self.restrict, m.data))
        else:
            self.keep, self.rest, self.rows = range(m.cols), rels, m.to_lists()
        self.piv: Optional[list[int]] = None
        self.zero = self.above = self.below = self._basis = None
        # every row in the lattice: all of Z^r, with no elimination
        self._kernel = None if any(map(any, self.rows)) else identity(m.rows)

    def restrict(self, v: tuple[int, ...]) -> list[int]:
        """v reduced by rels, on the columns keep: a new list."""
        x = list(v)
        echelon_reduce(self.rels, x)
        return x if self.rest is self.rels else [x[j] for j in self.keep]

    def _eliminate(self) -> None:
        if self.piv is None:
            r, rows, self.zero = self.shape[0], [], []
            for x, e in zip(self.rows, identity(r).data):
                if any(x):
                    x.extend(e)
                    rows.append(x)
                else:
                    self.zero.append(e)
            rows += [list(row) + [0] * r for row in self.rest.data]
            self.piv, self.rows = _echelon(rows, self.rest.cols), None
            self.above, self.below = rows[:len(self.piv)], rows[len(self.piv):]

    def kernel(self) -> IntMatrix:
        if self._kernel is None:
            r = self.shape[0]
            if self._basis is not None and self._basis.rows == self.rels.rows + r:
                self._kernel = zeros(0, r)
            else:
                self._eliminate()
                below, self.below = self.below, None
                c = self.rest.cols
                self._kernel = hermite_basis(mat([x[c:] for x in below] + self.zero, r))
        return self._kernel

    def image(self) -> tuple[IntMatrix, IntMatrix]:
        """(H, X): the Hermite basis H of rows and rest, and X with X @ m =
        H modulo rels on the columns keep, where a vector is read through
        ``restrict``."""
        c = self.rest.cols
        self._eliminate()
        return (_certify(mat([row[:c] for row in self.above], c), self.piv),
                mat([row[c:] for row in self.above], self.shape[0]))

    def basis(self) -> IntMatrix:
        """The Hermite basis of the rows of m and rels: rels itself if they
        hold every row of m, and otherwise that of rows and rest, read off
        the elimination if it ran and found with no transform if not,
        joined to the unit rows of rels."""
        if self._basis is None:
            if self.piv is None and not any(map(any, self.rows)):
                self._basis = self.rels
            else:
                sub = (self.image()[0] if self.piv is not None else
                       hermite_basis(mat(list(self.rest.data) + self.rows, self.rest.cols)))
                if self.rest is not self.rels:
                    units = unit_pivots(self.rels).items()
                    sub = _join({j: self.rels.data[i] for j, i in units}, sub, self.keep)
                self._basis = sub
        return self._basis


def _join(units: dict[int, tuple[int, ...]], sub: IntMatrix, cols: Sequence[int]) -> IntMatrix:
    """The certified Hermite basis of the rows units[j], each with a unit
    pivot at column j and zero at the other columns of units, and of the
    certified Hermite basis sub placed on the columns cols, the rest: the
    unit rows, each reduced by placed sub, and placed sub, in pivot order.
    Each row is zero left of its pivot and each pivot's column is reduced
    above it, so these rows are the Hermite basis of their lattice."""
    c = len(units) + len(cols)
    placed = []
    for row in sub.data:
        full = [0] * c
        for j, x in zip(cols, row):
            full[j] = x
        placed.append(tuple(full))
    placed_piv = [cols[j] for _, j in sub._pivots]
    lift = _certify(IntMatrix(tuple(placed), c), placed_piv)
    out = dict(zip(placed_piv, placed))
    for j, row in units.items():
        if any(map(row.__getitem__, placed_piv)):
            x = list(row)
            echelon_reduce(lift, x)
            row = tuple(x)
        out[j] = row
    order = sorted(out)
    return _certify(IntMatrix(tuple(map(out.__getitem__, order)), c), order)


def _solve(m: IntMatrix, rels: Optional[IntMatrix]) -> _Solve:
    """The solved state of m against the Hermite basis of rels, built on
    first use; a matrix keeps only the last one.  Each call takes
    ``hermite_basis`` of rels, which returns certified relations as they
    are, and keeps the state when that basis is the one it holds, or equal
    to it."""
    if rels is not None and rels.cols != m.cols:
        raise DimensionMismatch(f"relations of width {rels.cols} for {m.cols} columns")
    basis = zeros(0, m.cols) if rels is None else hermite_basis(rels)
    s = m._solved
    if s is None or not (s.rels is basis or s.rels == basis):
        s = _Solve(m, basis)
        m.__dict__["_solved"] = s
    return s


def image_basis(m: IntMatrix, rels: Optional[IntMatrix] = None) -> IntMatrix:
    """The Hermite basis of the rows of m and rels, kept in the state that m
    keeps for rels (``_Solve``), so that a kernel or coordinates call on m
    eliminates once, as it would without this call."""
    return _solve(m, rels).basis()


def kernel_basis(m: IntMatrix, rels: Optional[IntMatrix] = None) -> IntMatrix:
    """Hermite basis of {x : x @ m lies in the lattice spanned by the rows
    of rels}, and of {x : x @ m = 0} without rels, read off the
    elimination that m keeps for rels (``_Solve``).  When every row of m
    reduces to zero by the rows of rels, it is all of Z^r, and nothing is
    eliminated."""
    return _solve(m, rels).kernel()


def member_coords(gens: IntMatrix, rels: Optional[IntMatrix],
                  vecs: IntMatrix) -> Optional[IntMatrix]:
    """Some C with C @ gens = vecs modulo the lattice spanned by the rows of
    rels, and exactly without rels; None when a row of vecs is outside the
    subgroup that the rows of gens generate modulo rels.  Every row of vecs,
    reduced by rels on the columns of no unit pivot, is reduced against the
    Hermite basis above the rank of the elimination that gens keeps for
    rels, the one ``kernel_basis`` reads.  C is one solution among those
    that differ by ``kernel_basis(gens, rels)``, and which one depends on
    that reduction: read only C @ gens modulo rels.  A certified Hermite
    basis gens with no rels has independent rows, so C is unique, and the
    reduction by gens itself gives it, with no elimination."""
    g, c = gens.shape
    s = None if rels is None and gens._pivots is not None else _solve(gens, rels)
    if vecs.cols != c:
        raise DimensionMismatch(f"vectors of width {vecs.cols} for {gens.shape}")
    if not vecs.rows:
        return zeros(0, g)
    h, x = (gens, None) if s is None else s.image()
    qs = []
    for v in vecs.data:
        y = list(v) if s is None else s.restrict(v)
        qs.append(echelon_reduce(h, y))
        if any(y):
            return None
    return mat(qs, h.rows) if x is None else mat(qs, h.rows) @ x
