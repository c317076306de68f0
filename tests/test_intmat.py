import gc
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from redinv import intmat
from redinv.abgrp import FgAbelianGroup
from redinv.intmat import (
    _echelon,
    MAX_INPUT_DIGITS,
    DimensionMismatch,
    IntMatrix,
    block_diag,
    block_sum,
    hermite_basis,
    hnf,
    hstack,
    identity,
    image_basis,
    int_from_json,
    invariant_factors,
    kernel_basis,
    mat,
    member_coords,
    snf,
    unit_pivots,
    vstack,
    zeros,
)

from oracles import (
    det,
    gcd_of_minors_invariants,
    in_row_lattice,
    is_json_integer,
    is_unimodular,
    leading_entries,
    lower_bidiagonal,
    random_matrix,
    random_unimodular,
    reference_hermite_basis,
    reference_hnf,
    with_dependent_column,
)


class TestHnf:
    def test_identity_fixed(self):
        h, u = hnf(identity(3))
        assert h.data == identity(3).data
        assert u.data == identity(3).data

    def test_row_swap(self):
        m = mat([[0, 1], [1, 0]])
        h, u = hnf(m)
        assert h.data == identity(2).data
        assert (u @ m).data == h.data
        assert abs(det(u)) == 1

    def test_pivot_is_column_gcd(self):
        m = mat([[2, 4], [6, 8]])
        h, u = hnf(m)
        assert h[0, 0] == 2
        assert (u @ m).data == h.data
        assert abs(det(u)) == 1

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(50):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 9)
            h, _ = hnf(m)
            h2, _ = hnf(h)
            assert h2.data == h.data


class TestSnf:
    def test_identity(self):
        u, d, v = snf(identity(2))
        assert d.data == identity(2).data

    @pytest.mark.parametrize("m, want", [
        pytest.param(mat([[2, 4], [6, 8]]), (2, 4), id="dense"),
        pytest.param(mat([[2, 0], [0, 3]]), (1, 6), id="coprime-diagonal"),
        pytest.param(mat([[0, 0], [0, 2]]), (2, 0), id="zero-first"),
        pytest.param(mat([[-2, 0], [0, 4]]), (2, 4), id="negative"),
        pytest.param(mat([[4, 0, 0], [0, 6, 0], [0, 0, 0]]), (2, 12, 0), id="broken-chain"),
        pytest.param(mat([[6, 10, 15]]), (1,), id="row"),
        pytest.param(zeros(0, 3), (), id="0x3"),
        pytest.param(zeros(3, 0), (), id="3x0"),
    ])
    def test_example(self, m, want):
        u, d, v = snf(m)
        assert d.data == tuple(tuple(want[i] if i == j else 0 for j in range(m.cols))
                               for i in range(m.rows))
        assert (u @ m @ v).data == d.data
        assert invariant_factors(m) == tuple(x for x in want if x)

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_dense_transforms_stay_small(self, seed):
        m = random_matrix(random.Random(seed), 40, 40, 99)
        u, d, v = snf(m)
        assert (u @ m @ v).data == d.data
        assert max(len(str(abs(x))) for t in (u, v) for r in t.data for x in r) < 400

    def test_cartan_a2(self):
        m = mat([[2, -1], [-1, 2]])
        _, d, _ = snf(m)
        assert d.data == ((1, 0), (0, 3))

    def test_random_oracle(self):
        rng = random.Random(2)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 10)
            u, d, v = snf(m)
            assert (u @ m @ v).data == d.data
            assert is_unimodular(u) and is_unimodular(v)
            factors = [f for f in invariant_factors(m) if f]
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            assert factors == gcd_of_minors_invariants(m)


class TestSolveLinear:
    """Row convention: member_coords(a, None, vecs) returns C with C @ a = vecs."""

    def test_simple(self):
        x = member_coords(mat([[2]]), None, mat([[4]]))
        assert x.data == ((2,),)
        assert kernel_basis(mat([[2]])).rows == 0

    def test_unsolvable(self):
        assert member_coords(mat([[2]]), None, mat([[3]])) is None

    def test_kernel(self):
        x = member_coords(mat([[1], [1]]), None, mat([[0]]))
        assert x.data == ((0, 0),)
        k = kernel_basis(mat([[1], [1]]))
        assert k.rows == 1
        assert k.row(0) in ((1, -1), (-1, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            member_coords(mat([[1], [2]]), None, mat([[1, 2]]))

    def test_random_consistency(self):
        rng = random.Random(3)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 5).transpose()
            b = mat([[rng.randint(-4, 4) for _ in range(m.rows)]], m.rows) @ m
            x = member_coords(m, None, b)
            assert x is not None
            assert x @ m == b
            k = kernel_basis(m)
            assert (k @ m).is_zero()

    def test_batch_and_empty_rhs(self):
        m = mat([[2, 0], [0, 3]])
        x = member_coords(m, None, mat([[4, 6], [0, 0], [-2, 9]]))
        assert x.data == ((2, 2), (0, 0), (-1, 3))
        assert member_coords(m, None, mat([[4, 6], [1, 0]])) is None
        assert member_coords(m, None, zeros(0, 2)) == zeros(0, 2)


class TestKernelBasis:
    """Row convention: kernel_basis(m) spans {x : x @ m = 0}."""

    def test_zero_matrix(self):
        k = kernel_basis(zeros(2, 2))
        assert k.data == identity(2).data

    def test_line(self):
        k = kernel_basis(mat([[1], [-1]]))
        assert k.rows == 1
        assert k.row(0) in ((1, 1), (-1, -1))

    def test_injective(self):
        k = kernel_basis(mat([[2]]))
        assert k.rows == 0

    def test_rank_nullity(self):
        rng = random.Random(4)
        for _ in range(100):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 8).transpose()
            k = kernel_basis(m)
            assert hermite_basis(k).rows == k.rows
            assert k.rows + hermite_basis(m).rows == m.rows
            assert (k @ m).is_zero()


class TestMisc:
    def test_is_identity(self):
        # past the cached rows too, where identity(n) builds them anew
        for n in (0, 1, 3, 300):
            assert identity(n).is_identity() and mat(identity(n).data, n).is_identity()
        for m in (mat([[1, 0]]), mat([[1, 0], [0, 2]]), mat([[1, 1], [0, 1]]),
                  mat([[0, 1], [1, 0]]), zeros(2, 2), zeros(0, 1)):
            assert not m.is_identity()

    def test_identity_is_new_on_every_call(self):
        # equal and certified, but what one keeps stays with it
        for n in (2, 300):
            a, b = identity(n), identity(n)
            assert a is not b and a == b
            assert _certificate_holds(a) and _certificate_holds(b)
            kernel_basis(a, mat([[2] * n]))
            assert a._solved is not None and b._solved is None

    def test_inverse_unimodular(self):
        # the identity as right-hand side gives the inverse of a unimodular matrix
        m = mat([[1, 2], [0, 1]])
        inv = member_coords(m, None, identity(2))
        assert inv == mat([[1, -2], [0, 1]])
        assert (m @ inv).data == identity(2).data

    def test_json_round_trip(self):
        m = mat([[10**30, -2], [0, 5]])
        assert IntMatrix.from_json(m.to_json()).data == m.data

    @pytest.mark.parametrize("a", [
        "", "-", "--1", "+1", " 1", "1 ", "1\n", "1_0", "1-2", "²", "١", "0x1", True, False,
        1.0, None, [1], "0", "-0", "007", "-12", 0, -7, 10**40,
        pytest.param("7" * MAX_INPUT_DIGITS, id="most-digits"),
        pytest.param("7" * (MAX_INPUT_DIGITS + 1), id="one-digit-too-many"),
        pytest.param("-" + "7" * MAX_INPUT_DIGITS, id="negative-most-digits"),
        pytest.param("-" + "7" * (MAX_INPUT_DIGITS + 1), id="negative-one-too-many"),
    ])
    def test_int_from_json_reads_what_the_decimal_pattern_matches(self, a):
        if is_json_integer(a):
            assert int_from_json(a) == int(a)
        else:
            with pytest.raises(ValueError, match="^not an integer of at most"):
                int_from_json(a)

    @pytest.mark.parametrize("row", [
        ["0", "1", "-1"], ["-99", "99", "100", "-100"], ["-0", "07"], ["1", 5, -5, "2"],
        [], ["1", True], ["1", 1.0], ["1", None], ["1", [1]], ["1", {"1": 1}], ["1", "²"],
        ["1", "+1"], ["1", " 1"],
        pytest.param(["1", "7" * (MAX_INPUT_DIGITS + 1)], id="one-digit-too-many"),
        pytest.param(["1", "7" * 40], id="forty-digits"),
    ], ids=str)
    def test_from_json_reads_each_entry_as_int_from_json(self, row):
        # small decimal strings are read by table lookup, the rest entry by entry
        if all(map(is_json_integer, row)):
            assert IntMatrix.from_json([row, row], cols=len(row)).data == (tuple(map(int, row)),) * 2
        else:
            with pytest.raises(ValueError, match="^not an integer of at most"):
                IntMatrix.from_json([row], cols=len(row))

    def test_big_integers(self):
        m = mat([[10**40, 1], [1, 10**40]])
        _, d, _ = snf(m)
        assert det(m) == d[0, 0] * d[1, 1] or det(m) == -(d[0, 0] * d[1, 1])


def _dense_block_sum(rows, cols, blocks):
    """The sum of c * m at (r, k) over the blocks, placed entry by entry."""
    out = [[0] * cols for _ in range(rows)]
    for r, k, m, c in blocks:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r + i][k + j] += c * m[i, j]
    return out


class TestBlockSum:
    @pytest.mark.parametrize("seed", range(40))
    def test_against_dense_placement(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        pool = [identity(min(rows, cols, 2)), zeros(0, min(cols, 3)),
                random_matrix(rng, rng.randint(0, rows), rng.randint(0, cols), 5),
                random_matrix(rng, rng.randint(0, rows), rng.randint(0, cols), 5)]
        blocks = []
        for _ in range(rng.randint(0, 8)):
            # one pool object may come back with another coefficient,
            # and blocks may overlap
            m = rng.choice(pool)
            blocks.append((rng.randint(0, rows - m.rows), rng.randint(0, cols - m.cols), m,
                           rng.randint(-3, 3)))
        got = block_sum(rows, cols, blocks)
        assert got.shape == (rows, cols)
        assert got.to_lists() == _dense_block_sum(rows, cols, blocks)

    def test_overlap_coefficients_and_reuse(self):
        a = mat([[1, 2], [0, 3]])
        blocks = [(0, 0, a, 2), (1, 1, a, -1), (0, 1, a, 0), (0, 0, identity(2), 1),
                  (2, 0, zeros(0, 3), 5)]
        assert block_sum(3, 3, blocks) == mat([[3, 4, 0], [0, 6, -2], [0, 0, -3]])
        # several blocks at one column offset, two of them one matrix object
        blocks = [(0, 0, a, 2), (1, 0, a, -1), (0, 0, identity(2), 1)]
        assert block_sum(3, 2, blocks) == mat([[3, 4], [-1, 5], [0, -3]])

    def test_matrices_built_on_the_fly(self):
        # each block's matrix is new and dropped once read, so a memo keyed
        # by id(m) alone would meet a reused id and read a stale support
        def blocks():
            for k in range(6):
                yield k, 0, mat([[k + 1] * (1 + k % 3)]), 1

        assert block_sum(6, 3, blocks()).to_lists() == _dense_block_sum(6, 3, blocks())

    def test_no_blocks(self):
        assert block_sum(2, 3, []) == zeros(2, 3)
        assert block_sum(0, 4, []).shape == (0, 4)

    @pytest.mark.parametrize("r, k", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_block_outside_raises(self, r, k):
        with pytest.raises(DimensionMismatch):
            block_sum(3, 3, [(r, k, identity(2), 1)])


def _matrices(max_rows: int = 5, max_cols: int = 5):
    shape = st.tuples(st.integers(1, max_rows), st.integers(1, max_cols))
    return shape.flatmap(lambda rc: st.lists(
        st.lists(st.integers(-9, 9), min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0],
    ).map(lambda rows: mat(rows, rc[1])))


@st.composite
def _hnf_inputs(draw, max_size: int = 7):
    """Wide, tall and square matrices (about half of them square), with 0
    rows or 0 columns too: dense, sparse over 0/+-1, or a product of two
    thin ones (rank below the size)."""
    r = draw(st.integers(0, max_size))
    c = draw(st.one_of(st.just(r), st.integers(0, max_size)))

    def entries(rows, cols, values):
        row = st.lists(values, min_size=cols, max_size=cols)
        return mat(draw(st.lists(row, min_size=rows, max_size=rows)), cols)

    kind = draw(st.sampled_from(("dense", "sparse", "singular")))
    if kind == "dense":
        return entries(r, c, st.integers(-20, 20))
    if kind == "sparse":
        return entries(r, c, st.sampled_from((0, 0, 1, -1)))
    k = draw(st.integers(0, max(min(r, c) - 1, 0)))
    return entries(r, k, st.integers(-5, 5)) @ entries(k, c, st.integers(-5, 5))


@st.composite
def _kernel_inputs(draw):
    """(m, rels) for kernel_basis: m from ``_hnf_inputs``; rels None, with
    no rows, a Hermite basis, the identity, or a stack of rows with
    dependent ones that is no Hermite basis; sometimes m = C @ rels, so
    that every row of m is zero modulo rels."""
    m = draw(_hnf_inputs())
    c = m.cols

    def entries(rows, cols, bound):
        row = st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols)
        return mat(draw(st.lists(row, min_size=rows, max_size=rows)), cols)

    kind = draw(st.sampled_from(("none", "empty", "hermite", "identity", "stacked")))
    if kind == "none":
        return m, None
    if kind == "empty":
        return m, zeros(0, c)
    if kind == "identity":
        return m, identity(c)
    base = entries(draw(st.integers(1, 4)), c, 9)
    if kind == "hermite":
        rels = mat([r for r in reference_hnf(base)[0].data if any(r)], c)
    else:
        rels = vstack(base, entries(draw(st.integers(1, 3)), base.rows, 3) @ base)
    if rels.rows and draw(st.booleans()):
        m = entries(m.rows, rels.rows, 3) @ rels
    return m, rels


def _singular_square() -> IntMatrix:
    """An 8 x 8 matrix of rank 7 whose column 4 is a combination of the
    others, so its U is not unique."""
    return with_dependent_column(random_matrix(random.Random(23), 8, 7, 20), 4)


class TestNormalFormProperties:
    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_hnf(self, m):
        h, u = hnf(m)
        assert (u @ m).data == h.data
        assert is_unimodular(u)
        assert hermite_basis(m) == mat([r for r in h.data if any(r)], m.cols)
        # reduced echelon: zero rows last, pivot columns increasing, pivots
        # positive, zeros below and entries in [0, pivot) above each pivot
        pivots = [next((j for j, a in enumerate(r) if a), None) for r in h.data]
        nonzero = [j for j in pivots if j is not None]
        assert pivots[: len(nonzero)] == nonzero
        assert nonzero == sorted(set(nonzero))
        for i, j in enumerate(nonzero):
            p = h[i, j]
            assert p > 0
            assert all(0 <= h[k, j] < p for k in range(i))
            assert all(h[k, j] == 0 for k in range(i + 1, h.rows))

    @settings(max_examples=300, deadline=None)
    @given(_hnf_inputs(max_size=12))
    @example(mat([[32749, 1], [0, 1]]))
    @example(_singular_square())
    # the golden matrix records' wide 12 x 20 of rank 12 and 16 x 16 of rank
    # 15, and a U of 259-bit entries, near the bound of hnf's packed slots
    @example(random_matrix(random.Random(20), 12, 20, 99))
    @example(with_dependent_column(random_matrix(random.Random(16), 16, 15, 20), 7))
    @example(lower_bidiagonal(40, -99))
    @example(mat([[0]]))
    @example(mat([[0, 0]]))
    @example(mat([[3, 1, 4], [0, 0, 0], [1, 5, 9]]))
    @example(zeros(0, 3))
    @example(zeros(3, 0))
    # inserted one at a time: a gcd step whose Bezout coefficients are
    # negative, a second row whose pivot lies left of the first's, a
    # dependent row before an independent one (the entrywise elimination)
    # and a row whose pivot is negative
    @example(mat([[5, 1], [-3, 2]]))
    @example(mat([[0, 2, 1], [3, 1, 0]]))
    @example(mat([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1]]))
    @example(mat([[-4, 6, 1]]))
    def test_hnf_matches_reference(self, m):
        # U is not unique unless the rows of m are independent, so records
        # depend on the Euclid steps (nearest-integer quotients), though not
        # on when the entries above the pivots are reduced
        assert hnf(m) == reference_hnf(m)

    def test_singular_in_the_last_column_only(self):
        # U is not unique here, and the elimination meets the missing pivot
        # only at the last column
        rng = random.Random(17)
        a = random_matrix(rng, 8, 7, 20)
        m = with_dependent_column(a, 7)
        assert hermite_basis(a).rows == 7 and hermite_basis(m).rows == 7
        assert hnf(m) == reference_hnf(m)

    def test_determinant_divisible_by_the_prime(self):
        # nonsingular though its determinant is 0 modulo 32749, which a test
        # of nonsingularity modulo that prime would take for singular
        m = mat([[32749, 1], [0, 1]])
        assert det(m) % 32749 == 0 and det(m) != 0
        assert hnf(m) == reference_hnf(m)

    @pytest.mark.parametrize("shape", [(30, 30), (40, 40), (64, 16)])
    def test_hnf_matches_reference_at_benchmark_sizes(self, shape):
        # dense input at the sizes of the benchmark, where the entries
        # inside the elimination grow; the tall one has a U that is not
        # unique, with 48 kernel rows
        m = random_matrix(random.Random(shape[0]), *shape, 99)
        assert hnf(m) == reference_hnf(m)

    @settings(max_examples=300, deadline=None)
    @given(_kernel_inputs())
    @example((zeros(0, 3), mat([[2, 1, 0], [0, 3, 3]])))
    @example((mat([[1], [-1], [0]]), None))
    @example((zeros(3, 0), zeros(2, 0)))
    @example((mat([[4, 6], [2, -3], [0, 0]]), mat([[2, 0], [0, 3]])))
    def test_kernel_basis_matches_reference(self, m_rels):
        m, rels = m_rels
        assert kernel_basis(m, rels) == _reference_kernel(m, rels)

    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_snf(self, m):
        u, d, v = snf(m)
        assert (u @ m @ v).data == d.data
        assert is_unimodular(u) and is_unimodular(v)
        assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
        diag = [d[i, i] for i in range(min(d.rows, d.cols))]
        assert all(a >= 0 for a in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0

    @settings(max_examples=150, deadline=None)
    @given(_matrices(4, 4))
    def test_kernel_basis(self, m):
        m = m.transpose()
        k = kernel_basis(m)
        assert k.cols == m.rows
        assert k.rows == m.rows - hermite_basis(m).rows
        assert (k @ m).is_zero()
        # saturated: the maximal minors of k are coprime (independent oracle)
        assert gcd_of_minors_invariants(k) == [1] * k.rows


def _reference_kernel(m: IntMatrix, rels) -> IntMatrix:
    """{x : x @ m in L(rels)} by the reference elimination: the projection
    to the first m.rows coordinates of the kernel of [m; rels], that is of
    the lower rows of any unimodular U, whose Hermite basis is unique."""
    stacked = m if rels is None else vstack(m, rels)
    h, u = reference_hnf(stacked)
    k = sum(1 for r in h.data if any(r))
    lower = mat([r[: m.rows] for r in u.data[k:]], m.rows)
    return mat([r for r in reference_hnf(lower)[0].data if any(r)], m.rows)


class TestHermiteShortcut:
    """``hermite_basis`` keeps rows that already form a Hermite basis, found
    in one pass and certified, and eliminates any others; a group keeps
    what it returns."""

    @settings(max_examples=300, deadline=None)
    @given(_hnf_inputs(max_size=9))
    @example(zeros(0, 3))
    @example(mat([[0, 0], [0, 0]]))
    def test_group_keeps_the_one_hermite_basis(self, m):
        h = hermite_basis(IntMatrix(m.data, m.cols))
        assert h == reference_hermite_basis(m)
        assert h._pivots == leading_entries(h)
        for given_rows in (m, h):
            g = FgAbelianGroup(m.cols, given_rows)
            assert g.relations == h
            assert g.relations._pivots == leading_entries(g.relations)
        # m is kept exactly when it is the basis already
        assert (hermite_basis(m) is m) == (m == h)

    @pytest.mark.parametrize("rows", [
        pytest.param([[1, -5, 0], [0, 0, 7]], id="negative-off-pivot"),
        pytest.param([[2, 1, 0], [0, 3, 3]], id="reduced-above"),
        pytest.param([[4]], id="one-row"),
    ])
    def test_hermite_bases_are_kept(self, rows):
        m = mat(rows)
        assert hermite_basis(m) is m and m._pivots == leading_entries(m)
        m = mat(rows)
        assert FgAbelianGroup(m.cols, m).relations is m

    @pytest.mark.parametrize("rows", [
        pytest.param([[-2, 1]], id="negative-pivot"),
        pytest.param([[1, 3], [0, 3]], id="above-equals-pivot"),
        pytest.param([[1, -1], [0, 3]], id="negative-above-pivot"),
        pytest.param([[1, 0], [0, 0]], id="zero-row"),
        pytest.param([[0, 1], [1, 0]], id="columns-out-of-order"),
        pytest.param([[2, 0], [3, 1]], id="same-leading-column"),
    ])
    def test_near_misses_take_the_elimination(self, rows):
        m = mat(rows)
        h = hermite_basis(m)
        assert h is not m and m._pivots is None
        g = FgAbelianGroup(m.cols, m)
        assert g.relations == h == reference_hermite_basis(m) != m
        assert g.relations._pivots == leading_entries(g.relations)


def _certificate_holds(h: IntMatrix) -> bool:
    """The certificate lists the leading entries of h, and h is the Hermite
    basis of its lattice by the reference elimination."""
    return h._pivots == leading_entries(h) and h == reference_hermite_basis(h)


def _seeded_inputs(seed: int) -> list[IntMatrix]:
    """Tall, wide and rank-deficient matrices."""
    rng = random.Random(seed)
    low_rank = random_matrix(rng, 6, 3, 3) @ random_matrix(rng, 3, 6, 9)
    return [random_matrix(rng, 9, 4, 9), random_matrix(rng, 3, 7, 9), low_rank]


class TestCertificate:
    """``_pivots`` is set only on a matrix that is its own Hermite basis,
    and only by code that made one."""

    @pytest.mark.parametrize("seed", range(6))
    def test_hermite_outputs_carry_their_pivots(self, seed):
        for m in _seeded_inputs(seed):
            rels = random_matrix(random.Random(100 + seed), 2, m.cols, 9)
            outputs = [hermite_basis(m), kernel_basis(m), kernel_basis(m, rels),
                       intmat._solve(m, rels).image()[0], identity(m.cols), zeros(0, m.cols)]
            for h in outputs:
                assert _certificate_holds(h), h
            # solving against rows that are no Hermite basis certifies neither
            assert member_coords(m, rels, m) is not None
            assert m._pivots is None and rels._pivots is None

    def test_built_matrices_carry_none(self):
        # each of these is a Hermite basis, but nothing vouched for it
        e = identity(3)
        for m in (mat(e.data, 3), e.transpose(), vstack(e), hstack(identity(2), zeros(2, 0)),
                  block_diag(identity(2), mat([[1]])), zeros(2, 3)):
            assert m._pivots is None, m

    @pytest.mark.parametrize("seed", range(6))
    def test_block_diagonal_of_certified_parts_is_certified(self, seed):
        parts = [identity(2), zeros(0, 3)]
        for m in _seeded_inputs(seed):
            parts += [hermite_basis(m), kernel_basis(m)]
        random.Random(seed).shuffle(parts)
        for b in (block_diag(*parts), block_diag(identity(2), identity(1)), block_diag()):
            assert _certificate_holds(b)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_uncertified_part_certifies_nothing(self, seed):
        parts = [hermite_basis(m) for m in _seeded_inputs(seed)] + [identity(2)]
        for k, h in enumerate(parts):
            # the same rows, which nothing vouched for
            b = block_diag(*parts[:k], IntMatrix(h.data, h.cols), *parts[k + 1:])
            assert b._pivots is None and b == block_diag(*parts)

    def test_sums_of_groups_scan_nothing(self, monkeypatch):
        # every group passes its relations through hermite_basis, which
        # scans and may eliminate only those with no certificate
        from redinv import abgrp
        rng = random.Random(7)
        groups = [FgAbelianGroup(m.cols, m) for m in _seeded_inputs(7)]
        groups += [FgAbelianGroup.free(2), FgAbelianGroup.trivial()]
        scans = []
        real = abgrp.hermite_basis

        def recording(m):
            if m._pivots is None:
                scans.append(m)
            return real(m)
        monkeypatch.setattr(abgrp, "hermite_basis", recording)
        rng.shuffle(groups)
        s = abgrp.direct_sum(*groups)
        p = abgrp.direct_sum(*[groups[0]] * 3)
        assert scans == []
        assert s.relations == hermite_basis(block_diag(*(g.relations for g in groups)))
        assert p.relations == hermite_basis(block_diag(*[groups[0].relations] * 3))

    @pytest.mark.parametrize("seed", range(6))
    def test_uncertified_rows_are_still_reduced(self, seed):
        for m in _seeded_inputs(seed):
            g = FgAbelianGroup(m.cols, m)
            assert g.relations == hermite_basis(m) != m
            assert m._pivots is None and _certificate_holds(g.relations)

    def test_certified_input_starts_the_smith_loop(self, monkeypatch):
        d = hermite_basis(mat([[2, 0, 0], [0, 4, 0], [0, 0, 6]]))
        calls = []
        real = _echelon
        monkeypatch.setattr(intmat, "_echelon",
                            lambda rows, c: calls.append(c) or real(rows, c))
        assert invariant_factors(d) == (2, 2, 12)
        assert calls == []
        # the same rows with no certificate are found to be a Hermite basis
        # in one pass; rows out of order take one elimination
        assert invariant_factors(mat(d.data, 3)) == (2, 2, 12)
        assert calls == []
        assert invariant_factors(mat([d.data[1], d.data[0], d.data[2]], 3)) == (2, 2, 12)
        assert len(calls) == 1

    def test_every_live_certificate_holds(self):
        # groups, kernels, cokernels and subquotients of whole commands
        from redinv.catalogio import datum_invariants
        from redinv.rootdata import from_catalog, validate
        from redinv.tres import four_term_check, pushout_tresolution
        kept = []  # alive for the scan below
        for spec in ("PGL(3)", "GL(4)", "SL(3)xGamma:flip", "PSO(8)xGamma:triality", "G2"):
            d = from_catalog(spec)
            res = pushout_tresolution(d)
            kept.append((d, validate(d), datum_invariants(d), res, four_term_check(res)))
        certified = [o for o in gc.get_objects()
                     if isinstance(o, IntMatrix) and o._pivots is not None]
        assert len(certified) > 50
        assert all(map(_certificate_holds, certified))


def _with_unit_pivots(rng: random.Random, m: IntMatrix) -> IntMatrix:
    """m with about half its rows replaced by rows whose leading entry is a
    1, so that its Hermite basis has unit pivots."""
    rows = [list(r) for r in m.data]
    for i, row in enumerate(rows):
        j = rng.randrange(m.cols)
        if rng.random() < 0.5:
            rows[i] = [0] * j + [1] + row[j + 1:]
    return mat(rows, m.cols)


class TestHermiteBasisAgainstOracles:
    """``hermite_basis``, the one door to a certified Hermite basis, and the
    Smith invariants read off it, against ``reference_hnf`` and the gcds of
    minors, which run no normal-form code of ``intmat``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_certified_input_is_returned_with_no_elimination(self, seed, monkeypatch):
        bases = [hermite_basis(m) for m in _seeded_inputs(seed)]
        bases += [kernel_basis(m) for m in _seeded_inputs(seed)] + [identity(3), zeros(0, 2)]
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        for h in bases:
            assert hermite_basis(h) is h

    @pytest.mark.parametrize("seed", range(6))
    def test_uncertified_hermite_basis_is_certified_with_no_elimination(self, seed, monkeypatch):
        bases = [reference_hermite_basis(m) for m in _seeded_inputs(seed)]
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        for h in bases:
            assert h._pivots is None
            assert hermite_basis(h) is h and _certificate_holds(h)

    @settings(max_examples=200, deadline=None)
    @given(_hnf_inputs(max_size=10))
    def test_any_other_input_gives_the_reference_basis(self, m):
        want = reference_hermite_basis(m)
        h = hermite_basis(m)
        assert h == want and _certificate_holds(h)
        assert (h is m) == (m == want)

    @pytest.mark.parametrize("seed", range(8))
    def test_invariant_factors_match_the_minors(self, seed):
        rng = random.Random(seed)
        units = 0
        for _ in range(6):
            m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 9)
            for given_rows in (m, _with_unit_pivots(rng, m)):
                h = hermite_basis(given_rows)
                units += len(unit_pivots(h))
                want = tuple(gcd_of_minors_invariants(given_rows))
                for x in (given_rows, h, IntMatrix(h.data, h.cols)):
                    assert invariant_factors(x) == want, x
        assert units > 0

    @settings(max_examples=200, deadline=None)
    @given(_hnf_inputs(max_size=8))
    def test_unit_pivots_match_the_leading_entries(self, m):
        h = hermite_basis(m)
        want = {j: i for i, j in leading_entries(h) if h[i, j] == 1}
        assert unit_pivots(h) == want
        # a unit pivot's column is zero in every other row
        for j, i in want.items():
            assert all(row[j] == 0 for k, row in enumerate(h.data) if k != i)


@st.composite
def _systems(draw):
    """(a, vecs): a up to 5 x 5; vecs random, or C @ a for a random C."""
    a = draw(_matrices())

    def exact(rows, cols):
        row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
        return mat(draw(st.lists(row, min_size=rows, max_size=rows)), cols)

    rows = draw(st.integers(1, 3))
    return a, exact(rows, a.rows) @ a if draw(st.booleans()) else exact(rows, a.cols)


@st.composite
def _systems_mod_relations(draw):
    """(gens, rels, vecs): gens up to 3 x 4 (or none); rels up to 3 rows
    and one more that is the sum of two of them, so never a Hermite basis;
    vecs random, or C @ gens + R @ rels for random C and R."""
    cols = draw(st.integers(1, 4))

    def exact(rows, width):
        row = st.lists(st.integers(-9, 9), min_size=width, max_size=width)
        return mat(draw(st.lists(row, min_size=rows, max_size=rows)), width)

    gens = exact(draw(st.integers(0, 3)), cols)
    rels = exact(draw(st.integers(1, 3)), cols)
    i, j = draw(st.integers(0, rels.rows - 1)), draw(st.integers(0, rels.rows - 1))
    rels = vstack(rels, mat([[(k == i) + (k == j) for k in range(rels.rows)]]) @ rels)
    rows = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return gens, rels, exact(rows, gens.rows) @ gens + exact(rows, rels.rows) @ rels
    return gens, rels, exact(rows, cols)


class TestAgainstSmithOracle:
    """Solvability, modulo relations too, against the gcd-of-minors
    invariant factors, and kernels against rank and minors from sympy over
    Q and Z."""

    @settings(max_examples=200, deadline=None)
    @given(_systems())
    def test_solve_linear(self, system):
        a, vecs = system
        c = member_coords(a, None, vecs)
        assert (c is not None) == in_row_lattice(a, vecs)
        if c is not None:
            assert c @ a == vecs

    @settings(max_examples=150, deadline=None)
    @given(_systems_mod_relations())
    # vectors not reduced by relations with no unit pivot: C is pinned only
    # modulo the kernel, so only C @ gens - vecs is checked
    @example((mat([[1], [1]]), mat([[3]]), mat([[5]])))
    @example((mat([[1, 0], [0, 1], [1, 1]]), mat([[2, 0], [0, 3]]), mat([[7, 8], [-5, 4]])))
    def test_member_coords_modulo_relations(self, system):
        gens, rels, vecs = system
        c = member_coords(gens, rels, vecs)
        assert (c is not None) == in_row_lattice(vstack(gens, rels), vecs)
        if c is not None:
            assert c.shape == (vecs.rows, gens.rows)
            assert in_row_lattice(rels, c @ gens - vecs)

    @settings(max_examples=150, deadline=None)
    @given(_matrices())
    def test_kernel_basis(self, m):
        sympy = pytest.importorskip("sympy")
        k = kernel_basis(m)
        assert (k @ m).is_zero()
        assert k.rows == m.rows - sympy.Matrix(m.to_lists()).rank()
        minors = [sympy.Matrix([[r[j] for j in cols] for r in k.data]).det()
                  for cols in itertools.combinations(range(k.cols), k.rows)]
        assert sympy.gcd_list(minors) == 1  # saturated


def _twin(m):
    """An equal matrix object that shares no solved state with m."""
    return None if m is None else IntMatrix(m.data, m.cols)


def _solved_results(gens, rels, vecs):
    """kernel, coordinates and image of gens modulo rels, each from a
    matrix of its own, so that no call shares an elimination."""
    rows = vstack(rels, gens) if rels is not None else gens
    return {"kernel": kernel_basis(_twin(gens), _twin(rels)),
            "coords": member_coords(_twin(gens), _twin(rels), vecs),
            "image": hermite_basis(rows)}


class TestSharedSolve:
    """A matrix keeps its elimination against the last relations it was
    solved against: ``kernel_basis``, ``member_coords`` and the image basis
    that ``abgrp.cokernel`` reads (``image_basis``) share it, and no call
    order, equal copy of the relations or earlier solve against other
    relations changes a result."""

    @staticmethod
    def _check(name, gens, rels, vecs, want):
        if name == "kernel":
            assert kernel_basis(gens, rels) == want["kernel"]
        elif name == "coords":
            c = member_coords(gens, rels, vecs)
            assert c == want["coords"]
            if c is not None:
                assert in_row_lattice(rels if rels is not None else zeros(0, gens.cols),
                                      c @ gens - vecs)
        else:
            image = image_basis(gens, rels)
            assert image == want["image"] and _certificate_holds(image)

    @settings(max_examples=150, deadline=None)
    @given(_systems_mod_relations(), st.permutations(["kernel", "coords", "image"]),
           st.sampled_from(["stacked", "hermite", "none"]))
    def test_every_call_order(self, system, order, kind):
        # the second round reads only what the first kept.  Certified
        # relations and none cost no elimination; each call with the
        # stacked ones, which are no Hermite basis, takes their Hermite
        # basis again (one run, or one per block of a tall stack), which
        # carries no transform, and keeps the solved state
        gens, rels, vecs = system
        rels = {"stacked": rels, "hermite": hermite_basis(rels), "none": None}[kind]
        want = _solved_results(gens, rels, vecs)
        for name in order:
            self._check(name, gens, rels, vecs, want)
        runs = []

        def counting(rows, c):
            runs.append(bool(rows) and len(rows[0]) > c)
            return _echelon(rows, c)
        with mock.patch.object(intmat, "_echelon", counting):
            if kind == "stacked":
                hermite_basis(_twin(rels))
            per_call, runs[:] = len(runs), []
            for name in order:
                self._check(name, gens, rels, vecs, want)
            assert image_basis(gens, rels) == want["image"]
        if kind == "stacked":
            assert not any(runs) and len(runs) == per_call * (len(order) + 1)
        else:
            assert runs == []

    @settings(max_examples=100, deadline=None)
    @given(_systems_mod_relations(), st.permutations(["kernel", "coords", "image"]))
    def test_equal_but_distinct_relations(self, system, order):
        gens, rels, vecs = system
        want = _solved_results(gens, rels, vecs)
        kernel_basis(gens, rels)
        for name in order:
            self._check(name, gens, _twin(rels), vecs, want)

    @settings(max_examples=100, deadline=None)
    @given(_systems_mod_relations(), st.permutations(["kernel", "coords", "image"]))
    def test_never_stale_after_other_relations(self, system, order):
        gens, rels, vecs = system
        others = [rels, None, hermite_basis(vstack(rels, gens)), rels, zeros(0, gens.cols)]
        wants = [_solved_results(gens, r, vecs) for r in others]
        for r, want in zip(others, wants):
            for name in order:
                self._check(name, gens, r, vecs, want)

    @settings(max_examples=150, deadline=None)
    @given(_systems_mod_relations())
    def test_coordinates_modulo_redundant_relations_after_a_kernel(self, system):
        # rels has a redundant row, so it is no Hermite basis: the solver
        # reduces by the Hermite basis of its lattice instead
        gens, rels, vecs = system
        k = kernel_basis(gens, rels)
        assert in_row_lattice(rels, k @ gens)
        c = member_coords(gens, rels, vecs)
        assert (c is not None) == in_row_lattice(vstack(gens, rels), vecs)
        if c is not None:
            assert in_row_lattice(rels, c @ gens - vecs)

    def test_one_elimination_per_map(self, monkeypatch):
        stacked = []
        real = _echelon

        def counting(rows, c):
            if rows and len(rows[0]) > c:  # carries a transform
                stacked.append(c)
            return real(rows, c)
        monkeypatch.setattr(intmat, "_echelon", counting)
        gens, rels = mat([[2, 4], [6, 3], [1, 1]]), mat([[4, 0], [0, 6]])
        want = hermite_basis(vstack(rels, gens))
        k = kernel_basis(gens, rels)
        c = member_coords(gens, _twin(rels), mat([[1, 1], [3, 5]]))
        assert image_basis(gens, rels) == want
        assert kernel_basis(gens, rels) is k
        assert c is not None and len(stacked) == 1
        kernel_basis(gens, mat([[4, 0]]))
        assert len(stacked) == 2
        # a new solve against rels: its image basis carries no transform,
        # and the kernel and coordinates after it share one elimination
        assert image_basis(gens, rels) == want and len(stacked) == 2
        assert kernel_basis(gens, rels) == k
        assert member_coords(gens, rels, mat([[1, 1], [3, 5]])) == c
        assert image_basis(gens, rels) == want and len(stacked) == 3

    def test_hnf_and_the_solver_eliminate_once_each(self, monkeypatch):
        # hnf keeps nothing on m and carries U packed, one entry a row, into
        # the rows it inserts one at a time, which runs no elimination; a
        # dependent row sends the singular m to one elimination that carries
        # U entry by entry; the kernel, image and coordinates of m after it
        # share one more carried elimination
        widths = []
        real = _echelon

        def counting(rows, c):
            if rows and len(rows[0]) > c:  # carries a transform
                widths.append(len(rows[0]) - c)
            return real(rows, c)
        monkeypatch.setattr(intmat, "_echelon", counting)
        for m, passes in ((random_matrix(random.Random(41), 6, 6, 20), []),
                          (mat([[1, 2, 3], [2, 4, 6], [1, 0, 1]]), [3])):
            widths.clear()
            h, u = hnf(m)
            assert (h, u) == reference_hnf(m) and widths == passes
            assert m._solved is None
            k = kernel_basis(m)
            assert k.rows == m.rows - hermite_basis(m).rows and (k @ m).is_zero()
            assert image_basis(m) == mat([r for r in h.data if any(r)], m.cols)
            x = member_coords(m, None, h)
            assert (x @ m).data == h.data and widths == passes + [m.rows]
            if det(m):  # U is unique, so the solver's coordinates are U
                assert x == u

    def test_zero_modulo_relations_eliminates_nothing(self, monkeypatch):
        rels = hermite_basis(mat([[2, 0], [0, 3]]))
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        gens = mat([[4, 6], [0, 12]])
        assert kernel_basis(gens, rels) == identity(2)
        assert image_basis(gens, rels) is rels
        assert image_basis(zeros(3, 2)) == zeros(0, 2)


def _unit_heavy_system(seed: int) -> tuple[IntMatrix, IntMatrix]:
    """(gens, rels): rels the Hermite basis of random rows and of d Z^c for a
    small d, mostly unit pivots and a few others; gens of random rows, zero
    rows and rows in the lattice of rels."""
    rng = random.Random(seed)
    c = rng.randint(2, 7)
    d = rng.randint(2, 6)
    rels = hermite_basis(vstack(random_matrix(rng, c, c, 3),
                                mat([[d * (i == j) for j in range(c)] for i in range(c)])))
    kinds = (lambda: random_matrix(rng, 1, c, 6), lambda: zeros(1, c),
             lambda: random_matrix(rng, 1, c, 2) @ rels)
    return vstack(*(rng.choice(kinds)() for _ in range(rng.randint(1, 6)))), rels


class TestKernelAlone:
    """The solver eliminates once per matrix and relations, on what the
    relations leave (the nonzero rows, the columns of no unit pivot), or
    reads a zero kernel off a kept full-rank image basis; the kernel, the
    image basis and the coordinates are still the reference ones."""

    def test_systems_have_unit_pivots_and_zero_rows(self):
        systems = [_unit_heavy_system(seed) for seed in range(60)]
        assert sum(bool(unit_pivots(rels)) for _, rels in systems) > 40
        assert sum(not all(map(any, gens.data)) for gens, _ in systems) > 20

    @pytest.mark.parametrize("seed", range(60))
    def test_kernel_alone_is_the_reference_kernel(self, seed, monkeypatch):
        gens, rels = _unit_heavy_system(seed)
        eliminated = []
        real = intmat._Solve._eliminate

        def counting(s):
            fresh = s.piv is None
            real(s)
            if fresh:
                eliminated.append((s.shape[0] - len(s.zero), s.rest))
        monkeypatch.setattr(intmat._Solve, "_eliminate", counting)
        assert kernel_basis(gens, rels) == _reference_kernel(gens, rels)
        image = image_basis(gens, rels)
        assert image == reference_hermite_basis(vstack(rels, gens)) and _certificate_holds(image)
        # the coordinates, against the reference: a row lies in a lattice
        # when adding it keeps the basis
        lattice = reference_hermite_basis(vstack(gens, rels))
        vecs = mat([[1] * gens.cols])
        c = member_coords(gens, rels, vecs)
        assert (c is not None) == (reference_hermite_basis(vstack(lattice, vecs)) == lattice)
        if c is not None:
            assert (reference_hermite_basis(vstack(rels, c @ gens - vecs))
                    == reference_hermite_basis(rels))
        # all three ran one elimination, of the rows outside the lattice of
        # rels against the rows of rels with no unit pivot, on their columns
        basis = reference_hermite_basis(rels)
        live = sum(reference_hermite_basis(vstack(basis, mat([row]))) != basis
                   for row in gens.data)
        unit = {j for i, j in leading_entries(basis) if basis[i, j] == 1}
        keep = [j for j in range(rels.cols) if j not in unit]
        rest = [[basis[i, k] for k in keep] for i, j in leading_entries(basis) if j not in unit]
        assert eliminated == [(live, mat(rest, len(keep)))]

    @pytest.mark.parametrize("seed", range(60))
    def test_every_call_order_eliminates_at_most_once(self, seed, monkeypatch):
        # in particular a kernel read first, then coordinates, share one
        gens, rels = _unit_heavy_system(seed)
        vecs = mat([[1] * gens.cols])
        want = _solved_results(gens, rels, vecs)
        runs = []

        def counting(rows, c):
            runs.append(bool(rows) and len(rows[0]) > c)  # carries a transform
            return _echelon(rows, c)
        monkeypatch.setattr(intmat, "_echelon", counting)
        for order in itertools.permutations(["kernel", "coords", "image"]):
            runs.clear()
            fresh = _twin(gens)
            for name in order:
                TestSharedSolve._check(name, fresh, rels, vecs, want)
            assert sum(runs) <= 1, order

    @pytest.mark.parametrize("seed", range(30))
    def test_image_basis_with_no_elimination_on_unit_pivots(self, seed):
        gens, rels = _unit_heavy_system(seed)
        image = image_basis(gens, rels)
        assert image == reference_hermite_basis(vstack(rels, gens)) and _certificate_holds(image)

    @pytest.mark.parametrize("seed", range(20))
    def test_full_rank_kernel_is_read_off_the_basis(self, seed, monkeypatch):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        m = random_unimodular(rng, n) @ mat([[(i == j) * rng.randint(1, 4) for j in range(n)]
                                             for i in range(n)])
        assert image_basis(m) == reference_hermite_basis(m)
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        assert kernel_basis(m) == zeros(0, n)

    def test_hermite_basis_drops_zero_rows_in_one_pass(self, monkeypatch):
        rows = mat([[0, 0, 0], [2, 1, 5], [0, 0, 0], [0, 3, 1], [0, 0, 0]])
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        h = hermite_basis(rows)
        assert h == mat([[2, 1, 5], [0, 3, 1]]) and _certificate_holds(h)

    @pytest.mark.parametrize("seed", range(20))
    def test_coordinates_on_a_certified_basis_need_no_elimination(self, seed, monkeypatch):
        rng = random.Random(seed)
        basis = hermite_basis(random_matrix(rng, 4, 5, 9))
        vecs = vstack(random_matrix(rng, 2, basis.rows, 5) @ basis, random_matrix(rng, 1, 5, 9))
        want = member_coords(_twin(basis), None, vecs)
        monkeypatch.setattr(intmat, "_echelon", lambda *a, **kw: pytest.fail("eliminated"))
        assert member_coords(basis, None, vecs) == want
        inside = mat(vecs.data[:2], vecs.cols)
        assert member_coords(basis, None, inside) @ basis == inside


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    rng = random.Random(6)
    for _ in range(150):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 12)
        got = normalforms.invariant_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
        assert invariant_factors(m) == tuple(abs(int(x)) for x in got if x != 0)
