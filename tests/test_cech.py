import random

import pytest

from redinv.intmat import mat, zeros
from redinv.abgrp import AbHom, FgAbelianGroup, cokernel, kernel
from redinv.cech import (
    _delta_matrix,
    _lambda_matrix,
    MAX_DEGREE_CAP,
    CechInput,
    DegreeCapExceeded,
    build_complex,
    cech_cohomology,
    cochain_group,
    contraction_check,
    homotopy_map,
)

from oracles import (
    cech_delta_from_faces,
    cech_lambda_from_formula,
    constructive_hom,
    random_diagonal_group,
)


def make_input(fx, fg, matrix):
    return CechInput(fx, fg, AbHom(fx, fg, matrix))


def simple_input(n=2):
    fx = FgAbelianGroup.free(1)
    fg = FgAbelianGroup.free(1)
    return make_input(fx, fg, mat([[n]]))


class TestConstruction:
    def test_group_sizes(self):
        inp = simple_input()
        for i in range(5):
            assert cochain_group(inp, i).ambient_rank == 1 + i

    def test_degree_cap(self):
        with pytest.raises(DegreeCapExceeded):
            build_complex(simple_input(), 9)

    def test_mismatched_phi_rejected(self):
        fx = FgAbelianGroup.free(1)
        fg = FgAbelianGroup.free(2)
        with pytest.raises(ValueError):
            CechInput(fx, fg, AbHom(fg, fx, mat([[1], [1]])))

    def test_json_round_trip(self):
        inp = make_input(
            FgAbelianGroup(1, mat([[4]])), FgAbelianGroup.free(1), mat([[2]])
        )
        back = CechInput.from_json({
            "fx": {"ambientRank": 1, "relations": [["4"]]},
            "fg": {"ambientRank": 1, "relations": []},
            "phi": [["2"]],
        })
        assert back.phi.matrix.data == inp.phi.matrix.data
        assert back.fx == inp.fx and back.fg == inp.fg


class TestContraction:
    def test_delta_squared_zero(self):
        cx = build_complex(simple_input(3), 6)
        for i in range(5):
            assert cx.deltas[i].then(cx.deltas[i + 1]).is_zero()

    def test_homotopy_identity(self):
        cx = build_complex(simple_input(3), 6)
        rep = contraction_check(cx)
        assert rep.passed, rep.failures()

    def test_homotopy_degree_guard(self):
        cx = build_complex(simple_input(), 4)
        with pytest.raises(ValueError):
            homotopy_map(cx, 1)


class TestCohomology:
    def test_h0_is_kernel(self):
        # phi = (2): injective, so H^0 = 0
        cx = build_complex(simple_input(2), 4)
        assert cech_cohomology(cx, 0).is_trivial()
        # phi = 0: H^0 = F(X)
        cx = build_complex(simple_input(0), 4)
        assert cech_cohomology(cx, 0).invariants() == (1, ())

    def test_h1_is_cokernel(self):
        cx = build_complex(simple_input(3), 4)
        assert cech_cohomology(cx, 1).invariants() == (0, (3,))

    def test_higher_degrees_vanish(self):
        cx = build_complex(simple_input(3), 6)
        for i in range(2, 6):
            assert cech_cohomology(cx, i).is_trivial(), i

    def test_torsion_input(self):
        fx = FgAbelianGroup(1, mat([[4]]))
        fg = FgAbelianGroup(1, mat([[6]]))
        inp = make_input(fx, fg, mat([[3]]))
        cx = build_complex(inp, 5)
        assert contraction_check(cx).passed
        k, _ = kernel(inp.phi)
        c, _ = cokernel(inp.phi)
        assert cech_cohomology(cx, 0).invariants() == k.invariants()
        assert cech_cohomology(cx, 1).invariants() == c.invariants()
        for i in range(2, 5):
            assert cech_cohomology(cx, i).is_trivial()

    def test_zero_rank_fx(self):
        inp = make_input(
            FgAbelianGroup.free(0), FgAbelianGroup.free(2), zeros(0, 2)
        )
        cx = build_complex(inp, 4)
        assert contraction_check(cx).passed
        assert cech_cohomology(cx, 0).is_trivial()
        assert cech_cohomology(cx, 1).invariants() == (2, ())


class TestRandomized:
    def test_random_inputs(self):
        rng = random.Random(17)
        for _ in range(40):
            fx, dx = random_diagonal_group(rng, 3, 6)
            fg, dg = random_diagonal_group(rng, 3, 6)
            phi = constructive_hom(rng, fx, dx, fg, dg)
            inp = CechInput(fx, fg, phi)
            cx = build_complex(inp, 6)
            assert contraction_check(cx).passed
            k, _ = kernel(phi)
            c, _ = cokernel(phi)
            assert cech_cohomology(cx, 0).invariants() == k.invariants()
            assert cech_cohomology(cx, 1).invariants() == c.invariants()
            for i in range(2, 6):
                assert cech_cohomology(cx, i).is_trivial()


def _face_inputs():
    """(nx, ng, phi) for every pair of ranks up to 4, zero included, each
    with a seeded random phi."""
    out = []
    for nx in range(5):
        for ng in range(5):
            rng = random.Random(10 * nx + ng)
            out.append((nx, ng, [[rng.randint(-5, 5) for _ in range(ng)] for _ in range(nx)]))
    return out


class TestFaceMaps:
    """The matrices of ``cech`` against the definition: delta^i is the
    alternating sum of the pullbacks along the face maps, built with plain
    lists in ``oracles``, and lambda_i is the formula of the docstring."""

    @pytest.mark.parametrize("nx, ng, phi", _face_inputs())
    def test_delta_is_the_alternating_sum_of_the_faces(self, nx, ng, phi):
        inp = make_input(FgAbelianGroup.free(nx), FgAbelianGroup.free(ng), mat(phi, ng))
        for i in range(MAX_DEGREE_CAP + 1):
            d = _delta_matrix(inp, i)
            assert d.shape == (nx + i * ng, nx + (i + 1) * ng)
            assert d.to_lists() == cech_delta_from_faces(nx, ng, phi, i), i

    @pytest.mark.parametrize("nx, ng, phi", _face_inputs())
    def test_lambda_is_the_docstring_formula(self, nx, ng, phi):
        inp = make_input(FgAbelianGroup.free(nx), FgAbelianGroup.free(ng), mat(phi, ng))
        for i in range(2, MAX_DEGREE_CAP + 1):
            lam = _lambda_matrix(inp, i)
            assert lam.shape == (nx + i * ng, nx + (i - 1) * ng)
            assert lam.to_lists() == cech_lambda_from_formula(nx, ng, i), i

    def test_the_faces_give_a_complex(self):
        # the oracle's own check: its delta^{i+1} after delta^i is zero
        nx, ng, phi = 2, 3, [[1, -2, 3], [0, 4, -5]]
        for i in range(MAX_DEGREE_CAP):
            d0 = mat(cech_delta_from_faces(nx, ng, phi, i), nx + (i + 1) * ng)
            d1 = mat(cech_delta_from_faces(nx, ng, phi, i + 1), nx + (i + 2) * ng)
            assert (d0 @ d1).is_zero(), i
