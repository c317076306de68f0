import json
import os
import random
import sys

import pytest

from redinv import cech, cli
from redinv.intmat import mat, zeros
from redinv.abgrp import AbHom, Checks, FgAbelianGroup, cokernel, kernel
from redinv.catalogio import invariants_json
from redinv.cech import (
    _delta_matrix,
    _lambda_matrix,
    MAX_DEGREE_CAP,
    CechInput,
    DegreeCapExceeded,
    build_complex,
    cech_cohomology,
    cohomology_groups,
    contraction_check,
)

from oracles import (
    cech_delta_from_faces,
    cech_lambda_from_formula,
    constructive_hom,
    kernel_cokernel_invariants,
    random_diagonal_group,
    random_group,
    random_hom,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def make_input(fx, fg, matrix):
    return CechInput(fx, fg, AbHom(fx, fg, matrix))


def simple_input(n=2):
    fx = FgAbelianGroup.free(1)
    fg = FgAbelianGroup.free(1)
    return make_input(fx, fg, mat([[n]]))


class TestConstruction:
    def test_group_sizes(self):
        cx = build_complex(simple_input(), 4)
        for i in range(5):
            assert cx.groups[i].ambient_rank == 1 + i

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


def _input_text(inp: CechInput) -> str:
    return json.dumps({
        "fx": {"ambientRank": inp.fx.ambient_rank, "relations": inp.fx.relations.to_json()},
        "fg": {"ambientRank": inp.fg.ambient_rank, "relations": inp.fg.relations.to_json()},
        "phi": inp.phi.matrix.to_json(),
    })


def _run_cech(text: str, degree: int, tmp_path, capsys) -> tuple[int, dict, str]:
    """Exit code, JSON record and stderr of ``redinv cech`` on text."""
    path = tmp_path / "cech.json"
    path.write_text(text)
    code = cli.main(["cech", str(path), "--max-degree", str(degree), "--format", "json"])
    out = capsys.readouterr()
    return code, json.loads(out.out), out.err


def _assert_printed_groups_are_subquotients(rec: dict, cx) -> None:
    printed = rec["outputs"]["cohomology"]
    assert sorted(printed, key=int) == [str(i) for i in range(cx.max_degree)]
    for i in range(cx.max_degree):
        assert printed[str(i)] == invariants_json(cech_cohomology(cx, i)), i


class TestWitnesses:
    """A failed check names its degree and the first row that lies outside
    the relations, and a degree whose identity fails is computed as a
    subquotient, so it never reads as a plausible zero."""

    # F(X) = Z/4, F(G) = Z/6, phi = 3: H^0 = Z/2, H^1 = Z/3
    INPUT = make_input(FgAbelianGroup(1, mat([[4]])), FgAbelianGroup(1, mat([[6]])), mat([[3]]))

    def _corrupt(self, monkeypatch, name, degree, row, col, value):
        real = getattr(cech, name)

        def corrupted(inp, i):
            m = real(inp, i)
            if i != degree:
                return m
            rows = m.to_lists()
            rows[row][col] = value
            return mat(rows, m.cols)
        monkeypatch.setattr(cech, name, corrupted)

    def test_corrupt_homotopy_names_degree_and_row(self, monkeypatch, tmp_path, capsys):
        # lambda_3 sends a to 2a in slot 0, so e_a of C^3 goes to
        # (a, phi a, 0, 0): the residue phi a = 3 in slot 1 modulo Z/6
        self._corrupt(monkeypatch, "_lambda_matrix", 3, 0, 0, 2)
        code, rec, err = _run_cech(_input_text(self.INPUT), 6, tmp_path, capsys)
        assert code == 1
        failures = json.loads(err)["failures"]
        assert failures == {"homotopy-identity-3": {"row": 0, "residue": ["0", "3", "0", "0"]}}
        assert rec["verdicts"]["homotopy-identity-3"] is False
        _assert_printed_groups_are_subquotients(rec, build_complex(self.INPUT, 6))

    def test_corrupt_differential_names_degree_and_row(self, monkeypatch, tmp_path, capsys):
        # delta^2 sends a to a in slot 0 as well, so delta^1 delta^2 sends
        # e_a of C^1 to (a, 0, 0, 0), a nonzero class of Z/4
        self._corrupt(monkeypatch, "_delta_matrix", 2, 0, 0, 1)
        cx = build_complex(self.INPUT, 6)
        code, rec, err = _run_cech(_input_text(self.INPUT), 6, tmp_path, capsys)
        assert code == 1
        failures = json.loads(err)["failures"]
        assert failures["delta-squared-1"] == {"row": 0, "residue": ["1", "0", "0", "0"]}
        assert all(failures[name]["residue"] for name in failures)
        assert set(failures) <= {name for name, ok in rec["verdicts"].items() if not ok}
        _assert_printed_groups_are_subquotients(rec, cx)

    def test_failed_identity_prints_the_group_it_fails_on(self, monkeypatch, tmp_path, capsys):
        # delta^2 drops the block that sends b_2 to slot 3, so e_{b_2} of
        # C^2 is a cocycle and no coboundary: H^2 = Z/6, not the zero that
        # a passing identity would give
        self._corrupt(monkeypatch, "_delta_matrix", 2, 2, 3, 0)
        cx = build_complex(self.INPUT, 6)
        code, rec, err = _run_cech(_input_text(self.INPUT), 6, tmp_path, capsys)
        assert code == 1
        failures = json.loads(err)["failures"]
        assert failures["homotopy-identity-2"] == {"row": 2, "residue": ["0", "0", "5"]}
        assert rec["outputs"]["cohomology"]["2"] == {"rank": 0, "torsion": [6]}
        _assert_printed_groups_are_subquotients(rec, cx)

    def test_passing_checks_have_no_witness(self):
        checks = contraction_check(build_complex(self.INPUT, 6))
        assert checks.passed and all(w is None for _, _, w in checks.entries)


def _random_inputs(seed: int) -> list[tuple[CechInput, int]]:
    """Three inputs of ranks <= 4, each with a max degree from 3 to 8: free
    groups, diagonal relations with a hom built to respect them, and random
    relations with a hom found by rejection sampling."""
    rng = random.Random(seed)
    fx, fg = FgAbelianGroup.free(rng.randint(0, 4)), FgAbelianGroup.free(rng.randint(0, 4))
    out = [CechInput(fx, fg, random_hom(rng, fx, fg))]
    (fx, dx), (fg, dg) = random_diagonal_group(rng, 4, 6), random_diagonal_group(rng, 4, 6)
    out.append(CechInput(fx, fg, constructive_hom(rng, fx, dx, fg, dg)))
    fx, fg = random_group(rng, 4, 6), random_group(rng, 4, 6)
    out.append(CechInput(fx, fg, random_hom(rng, fx, fg)))
    return [(inp, rng.randint(3, MAX_DEGREE_CAP)) for inp in out]


def _seed_one_benchmark_inputs() -> list[tuple[str, int]]:
    """(file text, max degree) of the cech ops of the seed-1 ``cli_mix``
    stream, read from ``perfbench`` without changing it."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    from perfbench import run, workloads
    return [(op.files[0][1], int(op.argv[3]))
            for op in workloads.stream("cli_mix", 1, str(run.DATA)) if op.argv[0] == "cech"]


class TestDerivedGroups:
    """The groups ``redinv cech`` prints, of which it reads H^i for i >= 2
    off the homotopy identity, against the subquotient in every degree and
    against ker phi and coker phi computed by the oracle."""

    def _check(self, text, degree, tmp_path, capsys):
        code, rec, _ = _run_cech(text, degree, tmp_path, capsys)
        cx = build_complex(CechInput.from_json(json.loads(text)), degree)
        assert code == 0
        _assert_printed_groups_are_subquotients(rec, cx)
        printed = rec["outputs"]["cohomology"]
        ker, coker = kernel_cokernel_invariants(cx.inp.phi)
        assert (printed["0"]["rank"], tuple(printed["0"]["torsion"])) == ker
        assert (printed["1"]["rank"], tuple(printed["1"]["torsion"])) == coker
        for i in range(2, degree + 1):
            lam = AbHom(cx.groups[i], cx.groups[i - 1], _lambda_matrix(cx.inp, i))
            assert lam.is_well_defined(), i

    @pytest.mark.parametrize("seed", range(12))
    def test_random_inputs(self, seed, tmp_path, capsys):
        for inp, degree in _random_inputs(seed):
            self._check(_input_text(inp), degree, tmp_path, capsys)

    def test_seed_one_benchmark_inputs(self, tmp_path, capsys):
        inputs = _seed_one_benchmark_inputs()
        assert len(inputs) == 78
        for text, degree in inputs:
            self._check(text, degree, tmp_path, capsys)

    def test_the_command_checks_once_and_builds_two_subquotients(
            self, monkeypatch, tmp_path, capsys):
        calls = {"contraction_check": 0, "homology_at": 0}
        for name in calls:
            real = getattr(cech, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(cech, name, counting)
        inp, _ = _random_inputs(0)[1]
        code, _, _ = _run_cech(_input_text(inp), MAX_DEGREE_CAP, tmp_path, capsys)
        assert code == 0 and calls == {"contraction_check": 1, "homology_at": 2}

    def test_groups_of_a_failed_identity_are_subquotients(self, monkeypatch):
        cx = build_complex(simple_input(3), 5)
        checks = contraction_check(cx)
        failed = Checks(tuple((name, False, None) for name, _, _ in checks.entries))
        calls = []
        real = cech.cech_cohomology

        def recording(cx, i):
            calls.append(i)
            return real(cx, i)
        monkeypatch.setattr(cech, "cech_cohomology", recording)
        trivial = FgAbelianGroup.trivial()
        assert cohomology_groups(cx, checks) == [real(cx, 0), real(cx, 1)] + [trivial] * 3
        assert calls == [0, 1]
        calls.clear()
        assert [g.invariants() for g in cohomology_groups(cx, failed)] == [
            (0, ()), (0, (3,)), (0, ()), (0, ()), (0, ())]
        assert calls == [0, 1, 2, 3, 4]
