import argparse
import contextlib
import json
import os
import random
import sys
import time

import pytest

from redinv import cli
from redinv.cli import main
from redinv.catalogio import MAX_FILE_BYTES, catalog_expected, default_catalog_path, load_catalog
from redinv.intmat import MAX_INPUT_DIGITS, mat

from oracles import reference_hnf
from regen import build_catalog, catalog_to_json


DATA_DIR = os.path.dirname(default_catalog_path())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariants:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "PGL(2)")
        assert code == 0
        assert "Z/2" in out
        assert "datum valid:        True" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "invariants", "PGL(3)", "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["command"] == "invariants"
        assert rec["outputs"]["pi1"] == {"rank": 0, "torsion": [3]}
        assert rec["verdicts"]["datum-valid"] is True
        assert rec["verdicts"]["matches-catalog"] is True

    def test_unknown_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "invariants", "Nope(5)")
        assert code == 2
        assert "input error" in err

    def test_catalog_mismatch_exit_1(self, capsys, tmp_path):
        raw = json.loads(
            '{"schemaVersion":1,"entries":[{"spec":"SL(2)","expected":'
            '{"characterGroup":{"rank":0,"torsion":[]},'
            '"muDual":{"rank":0,"torsion":[7]},'
            '"pi1":{"rank":0,"torsion":[]}},"provenance":"tampered"}]}'
        )
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(raw))
        code, out, err = run(
            capsys, "invariants", "SL(2)", "--catalog", str(p), "--format", "json"
        )
        assert code == 1
        rec = json.loads(out)
        assert rec["verdicts"]["matches-catalog"] is False
        assert "matches-catalog" in err

    def test_env_catalog_override(self, capsys, tmp_path, monkeypatch):
        other = tmp_path / "cat.json"
        other.write_text(catalog_to_json(build_catalog(["G2"], "env")))
        monkeypatch.setenv("REDINV_CATALOG", str(other))
        # G2 is in the override catalog, so the verdict appears
        code, out, _ = run(capsys, "invariants", "G2", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdicts"]["matches-catalog"] is True

    def test_broken_catalog_gives_no_verdict(self, capsys, tmp_path):
        # the catalog is advisory: one that is not JSON counts as missing
        p = tmp_path / "cat.json"
        p.write_text('{"schemaVersion": 1, "entries": [')
        code, out, err = run(capsys, "invariants", "SL(2)", "--catalog", str(p),
                             "--format", "json")
        assert code == 0 and not err
        assert "matches-catalog" not in json.loads(out)["verdicts"]

    def test_human_and_json_verdicts_agree(self, capsys):
        code_h, out_h, _ = run(capsys, "invariants", "SO(8)")
        code_j, out_j, _ = run(capsys, "invariants", "SO(8)", "--format", "json")
        assert code_h == code_j == 0
        rec = json.loads(out_j)
        assert ("matches catalog:    True" in out_h) == rec["verdicts"]["matches-catalog"]


class TestPi1d:
    def test_canonical(self, capsys):
        code, out, _ = run(capsys, "pi1d", "PGL(2)")
        assert code == 0
        assert "H^0:        Z/2" in out

    def test_pushout(self, capsys):
        code, out, _ = run(
            capsys, "pi1d", "PGL(3)", "--resolution", "pushout", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["outputs"]["H0"] == {"rank": 0, "torsion": [3]}
        assert all(rec["verdicts"].values())

    def test_twisted(self, capsys):
        code, out, _ = run(
            capsys, "pi1d", "PSO(8)xGamma:triality", "--format", "json"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["outputs"]["H0"] == {"rank": 0, "torsion": [2, 2]}


TWISTED_SPECS = [s for s in load_catalog().specs() if "xGamma:" in s]


@pytest.mark.parametrize("argv", [["invariants"], ["pi1d"],
                                  ["pi1d", "--resolution", "pushout"]],
                         ids=["invariants", "pi1d-canonical", "pi1d-pushout"])
def test_twist_alias_gives_the_same_record(capsys, argv):
    # xΓ: spells xGamma:, and a leading zero spells the same argument
    # (PGL(03) is PGL(3)); the catalog names only the spelling it lists, so
    # invariants checks the catalog for that spelling alone
    assert len(TWISTED_SPECS) == 4
    for spec in TWISTED_SPECS:
        recs = {}
        for spelling in (spec, spec.replace("xGamma:", "xΓ:"), spec.replace("(", "(0", 1)):
            code, out, _ = run(capsys, argv[0], spelling, *argv[1:], "--format", "json")
            assert code == 0, spelling
            recs[spelling] = json.loads(out)
        ascii_rec = recs.pop(spec)
        ascii_rec["verdicts"].pop("matches-catalog", None)
        assert len(recs) == 2, spec  # three distinct spellings
        for spelling, alias_rec in recs.items():
            assert alias_rec["outputs"] == ascii_rec["outputs"], spelling
            assert alias_rec["verdicts"] == ascii_rec["verdicts"], spelling


# A twist needs a datum of its Dynkin type's rank and Cartan matrix (flip:
# A2, triality: D4); none of the first ten has both.
# The last four are no specs at all: a non-ASCII digit (Arabic-Indic,
# fullwidth) or a newline, which a "$" anchor or "\d" would let through.
MALFORMED_TWISTS = (
    "SO(7)xGamma:flip",
    "GL(3)xGamma:flip",
    "Spin(10)xGamma:triality",
    "Sp(4)xGamma:flip",
    "SL(5)xGamma:triality",
    "PGL(5)xGamma:triality",
    "SO(9)xGamma:triality",
    "F4adxGamma:triality",
    "SO(5)xGamma:flip",
    "T(4)xGamma:triality",
    "SL(\u0663)",
    "SL(\uff13)",
    "G2\n",
    "SL(3)\nxGamma:flip",
)


@pytest.mark.parametrize("spec", MALFORMED_TWISTS)
@pytest.mark.parametrize("command", ["invariants", "pi1d", "check-ses"])
def test_malformed_twist_exit_2(capsys, tmp_path, command, spec):
    arg = spec
    if command == "check-ses":
        with open(os.path.join(DATA_DIR, "ses_gm_gl2_pgl2.json")) as fh:
            obj = json.load(fh)
        obj["g3"] = spec
        fixture = tmp_path / "ses.json"
        fixture.write_text(json.dumps(obj))
        arg = str(fixture)
    for fmt in ("human", "json"):
        code, out, err = run(capsys, command, arg, "--format", fmt)
        assert code == 2, (fmt, err)
        assert "input error" in err and not out


class TestParserReuse:
    """main() builds its parser at the first call and shares it after."""

    def test_catalog_is_read_per_call(self, capsys, tmp_path, monkeypatch):
        good = tmp_path / "good.json"
        good.write_text(catalog_to_json(build_catalog(["G2"], "env")))
        tampered = json.loads(good.read_text())
        tampered["entries"][0]["expected"]["muDual"]["torsion"] = [7]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tampered))
        got = []
        for path in (good, bad):
            monkeypatch.setenv("REDINV_CATALOG", str(path))
            code, out, _ = run(capsys, "invariants", "G2", "--format", "json")
            got.append((code, json.loads(out)["verdicts"]["matches-catalog"]))
        assert got == [(0, True), (1, False)]

    def test_usage_error_leaves_no_state(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_parser", None)
        first = run(capsys, "pi1d", "SL(3)")
        monkeypatch.setattr(cli, "_parser", None)
        with pytest.raises(SystemExit) as exc:
            main(["pi1d", "SL(3)", "--resolution", "bogus"])
        assert exc.value.code == 2
        assert not capsys.readouterr().out
        assert run(capsys, "pi1d", "SL(3)")[:2] == first[:2]

    @pytest.mark.parametrize("option, default_line", [
        (["--format", "json"], "group:      SL(3)"),
        (["--resolution", "pushout"], "resolution: canonical"),
    ])
    def test_options_fall_back_to_defaults(self, capsys, option, default_line):
        assert run(capsys, "pi1d", "SL(3)", *option)[0] == 0
        code, out, _ = run(capsys, "pi1d", "SL(3)")
        assert code == 0 and default_line in out.splitlines()

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        # a wrapper put on a command after the parser is built still runs
        assert run(capsys, "invariants", "SL(2)")[0] == 0
        monkeypatch.setattr(cli, "cmd_invariants", lambda _args: 7)
        assert main(["invariants", "SL(2)"]) == 7

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_parser", None)
        cli.build_parser()
        per_build = len(built)
        monkeypatch.setattr(cli, "_parser", None)
        built.clear()
        for spec in ("SL(2)", "PGL(3)", "Nope(3)") * 4:
            main(["invariants", spec])
        capsys.readouterr()
        assert per_build > 1 and len(built) == per_build
        assert cli.build_parser() is cli.build_parser()


class TestCatalogCache:
    """The catalog is read on every call and parsed again only when its
    bytes change; what one call returns no later call shares."""

    GOOD = catalog_to_json(build_catalog(["G2"], "env"))

    @staticmethod
    def verdict(capsys, path):
        code, out, err = run(capsys, "invariants", "G2", "--catalog", str(path), "--format", "json")
        assert "Traceback" not in err
        return code, json.loads(out)["verdicts"].get("matches-catalog")

    def test_same_size_edit_with_the_old_mtime(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(self.GOOD)
        assert self.verdict(capsys, path) == (0, True)
        before = os.stat(path)
        edited = self.GOOD.replace('"pi1":{"rank":0', '"pi1":{"rank":1')
        assert edited != self.GOOD and len(edited) == len(self.GOOD)
        path.write_text(edited)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert self.verdict(capsys, path) == (1, False)

    def test_good_broken_good(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        got = []
        for text in (self.GOOD, self.GOOD[:-9], self.GOOD):
            path.write_text(text)
            got.append(self.verdict(capsys, path))
        assert got == [(0, True), (0, None), (0, True)]

    def test_mutating_a_returned_entry_changes_no_later_call(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(self.GOOD)
        entry = load_catalog(str(path)).entries[0]
        want = json.loads(self.GOOD)["entries"][0]["expected"]
        assert entry.expected == want
        entry.expected["muDual"]["torsion"].append(7)
        entry.expected["pi1"] = {"rank": 5, "torsion": []}
        assert self.verdict(capsys, path) == (0, True)
        assert load_catalog(str(path)).entries[0].expected == want

    def test_the_lookup_hands_out_a_copy(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(self.GOOD)
        want = json.loads(self.GOOD)["entries"][0]["expected"]
        got = catalog_expected("G2", str(path))
        assert got == want
        got["muDual"]["torsion"].append(7)
        got["pi1"] = {"rank": 5, "torsion": []}
        assert catalog_expected("G2", str(path)) == want
        assert self.verdict(capsys, path) == (0, True)

    def test_absent_spec_or_broken_catalog_gives_no_check(self, capsys, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(self.GOOD)
        assert catalog_expected("SL(2)", str(path)) is None
        code, out, err = run(capsys, "invariants", "SL(2)", "--catalog", str(path),
                             "--format", "json")
        assert code == 0 and not err
        assert "matches-catalog" not in json.loads(out)["verdicts"]
        path.write_text(self.GOOD[:-9])
        with pytest.raises(ValueError):
            catalog_expected("G2", str(path))
        assert self.verdict(capsys, path) == (0, None)


with open(os.path.join(DATA_DIR, "ses_gm_gl2_pgl2.json")) as fh:
    SES_OK = json.load(fh)
CECH_OK = {
    "fx": {"ambientRank": 1, "relations": []},
    "fg": {"ambientRank": 1, "relations": []},
    "phi": [["3"]],
}
WRONG_SHAPES = {
    "ses-top-level-list": ("check-ses", [SES_OK]),
    "ses-number-spec": ("check-ses", {**SES_OK, "g1": 7}),
    "ses-string-index": ("check-ses", {**SES_OK, "part3": ["a", 1]}),
    "cech-top-level-list": ("cech", [CECH_OK]),
    "cech-number-group": ("cech", {**CECH_OK, "fx": 3}),
    "matrix-bare-number": ("matrix snf", 5),
    "matrix-nested-entry": ("matrix hnf", [["1", ["2"]]]),
    # values that int() accepts silently, each read as a plausible wrong input
    "matrix-float-entry": ("matrix hnf", [[1.5, "2"], ["3", "4"]]),
    "matrix-bool-entry": ("matrix hnf", [[True, "2"], ["3", "4"]]),
    "matrix-underscore-entry": ("matrix snf", [["1_0", "2"], ["3", "4"]]),
    "matrix-padded-entry": ("matrix hnf", [[" 7 ", "2"], ["3", "4"]]),
    "matrix-string-rows": ("matrix hnf", ["12", "34"]),
    "ses-padded-entry": ("check-ses", {**SES_OK, "x3ToX2": [[" 1", "-1"]]}),
    "ses-bool-index": ("check-ses", {**SES_OK, "part3": [False]}),
    "cech-fractional-rank": ("cech", {**CECH_OK, "fx": {"ambientRank": 1.9, "relations": []}}),
    "cech-bool-rank": ("cech", {**CECH_OK, "fg": {"ambientRank": True, "relations": []}}),
    "cech-negative-rank": ("cech", {**CECH_OK, "fx": {"ambientRank": -1, "relations": []}}),
    # containers other than a list, once read as a matrix of no rows
    "cech-object-relations": ("cech", {**CECH_OK, "fx": {"ambientRank": 1, "relations": {}}}),
    "cech-string-relations": ("cech", {**CECH_OK, "fg": {"ambientRank": 1, "relations": ""}}),
    "ses-object-matrix": ("check-ses", {**SES_OK, "x2ToX1": {}}),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_wrong_json_shape_exit_2(capsys, tmp_path, case):
    command, content = WRONG_SHAPES[case]
    p = tmp_path / "input.json"
    p.write_text(json.dumps(content))
    for fmt in ("human", "json"):
        code, out, err = run(capsys, *command.split(), str(p), "--format", fmt)
        assert code == 2, (fmt, err)
        assert err.startswith("input error:") and not out


def test_spec_rank_bound(capsys):
    code, _, _ = run(capsys, "invariants", "T(64)", "--format", "json")
    assert code == 0
    for spec in ("T(65)", "SL(200000)", "GL(99999999999)"):
        code, out, err = run(capsys, "invariants", spec)
        assert code == 2, spec
        assert err.startswith("input error:") and not out


@pytest.mark.parametrize("argv", [
    ["cech", "FILE"],
    ["check-ses", "FILE"],
    ["matrix", "hnf", "FILE"],
    ["matrix", "snf", "FILE"],
    ["invariants", "SL(2)", "--catalog", "FILE"],
], ids=["cech", "check-ses", "matrix-hnf", "matrix-snf", "catalog"])
def test_deep_nesting(capsys, tmp_path, argv):
    # 1000 nested arrays pass the interpreter's recursion limit in json
    p = tmp_path / "deep.json"
    p.write_text("[" * 1000 + "]" * 1000)
    argv = [str(p) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv, "--format", "json")
    if argv[0] == "invariants":
        assert code == 0 and not err
        assert "matches-catalog" not in json.loads(out)["verdicts"]
    else:
        assert code == 2
        assert err.startswith("input error:") and not out


@pytest.mark.parametrize("argv", [
    ["--format", "json", "invariants", "SL(2)"],
    ["--catalog", "catalog.json", "invariants", "SL(2)"],
    ["invariants", "SL(2)", "-v"],
    ["-v", "invariants", "SL(2)"],
    ["pi1d", "SL(2)", "--catalog", "catalog.json"],
])
def test_options_outside_a_command_exit_2(capsys, argv):
    # options belong to the subcommand; argparse exits 2 on the rest
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not capsys.readouterr().out


class TestCheckSes:
    def test_shipped_fixture(self, capsys):
        path = os.path.join(DATA_DIR, "ses_sl3_gl3_gm.json")
        code, out, _ = run(capsys, "check-ses", path)
        assert code == 0
        assert "long exact sequence" in out

    def test_json_mode(self, capsys):
        path = os.path.join(DATA_DIR, "ses_gm_gl2_pgl2.json")
        code, out, _ = run(capsys, "check-ses", path, "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert all(rec["verdicts"].values())
        assert rec["outputs"]["sequence"]

    def test_corrupted_fixture_exit_1(self, capsys, tmp_path):
        path = os.path.join(DATA_DIR, "ses_gm_gl2_pgl2.json")
        obj = json.loads(open(path).read())
        obj["x3ToX2"] = [["1", "0"]]  # not the root embedding
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check-ses", str(bad), "--format", "json")
        assert code == 1
        rec = json.loads(out)
        failed = [k for k, v in rec["verdicts"].items() if not v]
        assert failed
        assert all(name in err for name in failed)

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "check-ses", "/nonexistent/ses.json")
        assert code == 2
        assert "input error" in err


class TestCech:
    def _write_input(self, tmp_path):
        obj = {
            "fx": {"ambientRank": 1, "relations": []},
            "fg": {"ambientRank": 1, "relations": []},
            "phi": [["3"]],
        }
        p = tmp_path / "cech.json"
        p.write_text(json.dumps(obj))
        return str(p)

    def test_basic(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cech", self._write_input(tmp_path))
        assert code == 0
        assert "H^1 = Z/3" in out

    def test_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "cech", self._write_input(tmp_path), "--format", "json",
            "--max-degree", "5",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["outputs"]["cohomology"]["1"] == {"rank": 0, "torsion": [3]}
        assert rec["outputs"]["cohomology"]["4"] == {"rank": 0, "torsion": []}

    def test_degree_cap_exit_2(self, capsys, tmp_path):
        path = self._write_input(tmp_path)
        for degree in ("9", "0", "-3", "1", "2"):
            code, out, err = run(capsys, "cech", path, "--max-degree", degree)
            assert code == 2, degree
            assert "input error" in err and not out

    def test_ill_defined_phi_exit_2(self, capsys, tmp_path):
        # Z/2 -> Z, 1 -> 1 sends the relation 2 to 2, which is not 0 in Z
        obj = {
            "fx": {"ambientRank": 1, "relations": [["2"]]},
            "fg": {"ambientRank": 1, "relations": []},
            "phi": [["1"]],
        }
        p = tmp_path / "cech.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "cech", str(p))
        assert code == 2
        assert "input error" in err and not out


def test_cech_tall_relations_reduced_on_load(capsys, tmp_path):
    # F(X) = Z^32 modulo 128 random relations of one digit in the first 30
    # coordinates, which leaves Z^2; phi keeps the last two coordinates
    rng = random.Random(128)
    rows = [[rng.randint(-9, 9) for _ in range(30)] + [0, 0] for _ in range(128)]
    hermite = [r for r in reference_hnf(mat(rows, 32))[0].to_lists() if any(r)]
    phi = [[int(i == j >= 30) for j in range(32)] for i in range(32)]
    cohomology = []
    for relations in (rows, hermite):
        obj = {"fx": {"ambientRank": 32, "relations": mat(relations, 32).to_json()},
               "fg": {"ambientRank": 32, "relations": []},
               "phi": mat(phi, 32).to_json()}
        p = tmp_path / "cech.json"
        p.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, out, _ = run(capsys, "cech", str(p), "--format", "json")
        assert code == 0 and time.perf_counter() - start < 10
        cohomology.append(json.loads(out)["outputs"]["cohomology"])
    assert len(hermite) == 30 and cohomology[0] == cohomology[1]
    assert cohomology[0]["1"] == {"rank": 30, "torsion": []}


def _digits(rng, n: int) -> str:
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))


class TestMatrix:
    def _write_matrix(self, tmp_path, m):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(m.to_json()))
        return str(p)

    def test_snf(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path, mat([[2, 4], [6, 8]]))
        code, out, _ = run(capsys, "matrix", "snf", path, "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["outputs"]["D"] == [["2", "0"], ["0", "4"]]

    def test_hnf(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path, mat([[0, 1], [1, 0]]))
        code, out, _ = run(capsys, "matrix", "hnf", path)
        assert code == 0
        assert "H = " in out

    def test_bad_file_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("not json")
        code, _, err = run(capsys, "matrix", "snf", str(p))
        assert code == 2

    @pytest.mark.parametrize("rows", [
        pytest.param([["1"] * 65] * 65, id="65x65"),
        pytest.param([["1"]] * 257, id="257x1"),
        pytest.param([["1"] * 257], id="1x257"),
        pytest.param([[_digits(random.Random(5), 4000)] * 5], id="5-entries-of-4000-digits"),
    ])
    def test_over_the_work_bound_exit_2(self, capsys, tmp_path, rows):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(rows))
        for kind in ("hnf", "snf"):
            for fmt in ("human", "json"):
                code, out, err = run(capsys, "matrix", kind, str(p), "--format", fmt)
                assert code == 2 and not out
                assert err.startswith("input error:")


@contextlib.contextmanager
def _any_int_length():
    """Lift Python's limit on int/str conversion while the test reads results."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestLongIntegers:
    """Results may pass Python's 4300-digit int/str limit; inputs may not."""

    def test_normal_forms_of_4000_digit_entries(self, capsys, tmp_path):
        rng = random.Random(4000)
        entries = [[_digits(rng, 4000) for _ in range(2)] for _ in range(2)]
        p = tmp_path / "m.json"
        p.write_text(json.dumps(entries))
        for kind in ("hnf", "snf"):
            code, out, _ = run(capsys, "matrix", kind, str(p), "--format", "human")
            assert code == 0 and out
            code, out, _ = run(capsys, "matrix", kind, str(p), "--format", "json")
            assert code == 0
            with _any_int_length():
                m = [[int(a) for a in row] for row in entries]
                got = {k: [[int(a) for a in row] for row in v]
                       for k, v in json.loads(out)["outputs"].items()}
                if kind == "hnf":
                    assert got["H"] == _product(got["U"], m)
                    assert max(len(str(abs(a))) for row in got["H"] for a in row) > 4300
                else:
                    assert got["D"] == _product(_product(got["U"], m), got["V"])

    def test_cech_torsion_of_5700_digits(self, capsys, tmp_path):
        # fx = 0 and fg = Z/(10^3000 + 1) + Z/2^9000, so H^1 = fg
        big = ["1" + "0" * 2999 + "1", str(2 ** 9000)]
        obj = {
            "fx": {"ambientRank": 0, "relations": []},
            "fg": {"ambientRank": 2, "relations": [[big[0], "0"], ["0", big[1]]]},
            "phi": [],
        }
        p = tmp_path / "cech.json"
        p.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "cech", str(p), "--max-degree", "3")
        assert code == 0 and "H^1 = Z/" in out
        code, out, _ = run(capsys, "cech", str(p), "--max-degree", "3", "--format", "json")
        assert code == 0
        with _any_int_length():  # group invariants are JSON numbers
            h1 = json.loads(out)["outputs"]["cohomology"]["1"]
            assert h1 == {"rank": 0, "torsion": [(10 ** 3000 + 1) * 2 ** 9000]}

    @pytest.mark.parametrize("literal", [False, True])
    def test_input_entry_of_4301_digits_exit_2(self, capsys, tmp_path, literal):
        entry = "7" * (MAX_INPUT_DIGITS + 1)
        p = tmp_path / "m.json"
        p.write_text(f"[[{entry}]]" if literal else json.dumps([[entry]]))
        for fmt in ("human", "json"):
            code, out, err = run(capsys, "matrix", "hnf", str(p), "--format", fmt)
            assert code == 2, fmt
            assert err.startswith("input error:") and not out
        p.write_text(json.dumps([["7" * MAX_INPUT_DIGITS]]))
        assert run(capsys, "matrix", "hnf", str(p))[0] == 0

    def test_interpreter_limit_restored(self, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        fixture = json.loads(open(os.path.join(DATA_DIR, "ses_gm_gl2_pgl2.json")).read())
        fixture["x3ToX2"] = [["1", "0"]]  # exit 1: not the root embedding
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fixture))
        for argv, want in ((["invariants", "SL(2)"], 0), (["check-ses", str(bad)], 1),
                           (["invariants", "Nope(5)"], 2)):
            assert run(capsys, *argv)[0] == want
            assert sys.get_int_max_str_digits() == limit


def test_json_group_rank_bound(capsys, tmp_path):
    p = tmp_path / "cech.json"
    for rank, want in ((10 ** 6, 2), (65, 2), (64, 0)):
        obj = {
            "fx": {"ambientRank": 0, "relations": []},
            "fg": {"ambientRank": rank, "relations": []},
            "phi": [],
        }
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "cech", str(p), "--max-degree", "3")
        assert code == want, rank
        if want == 2:
            assert err.startswith("input error:") and not out


def _long_entries(digits: int) -> list:
    """A 16 x 16 matrix of random entries of the given number of digits."""
    rng = random.Random(digits)
    return [[str(rng.randrange(10 ** (digits - 1), 10 ** digits)) for _ in range(16)]
            for _ in range(16)]


_IDENTITY_16 = mat([[int(i == j) for j in range(16)] for i in range(16)]).to_json()
_LONG_1000, _LONG_4300 = _long_entries(1000), _long_entries(4300)

# Files far over the digit budget that each took seconds or more before
# the budget was counted on the file's text, ahead of its JSON parse.
HOSTILE = {
    # F(X) = F(G) with phi the identity: read, verified and exit 0 after 9 s
    "cech-1000-digit-relations": ("cech", {
        "fx": {"ambientRank": 16, "relations": _LONG_1000},
        "fg": {"ambientRank": 16, "relations": _LONG_1000}, "phi": _IDENTITY_16}),
    # into a free F(G): exit 2 after 66 s
    "cech-4300-digit-relations": ("cech", {
        "fx": {"ambientRank": 16, "relations": _LONG_4300},
        "fg": {"ambientRank": 16, "relations": []}, "phi": _IDENTITY_16}),
    # both maps of a sequence of tori: exit 1 after 9 s
    "ses-1000-digit-maps": ("check-ses", {
        "g1": "T(16)", "g2": "T(16)", "g3": "T(16)", "part1": [], "part3": [],
        "x3ToX2": _LONG_1000, "x2ToX1": _LONG_1000}),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_file_over_the_digit_budget_exit_2_at_once(capsys, tmp_path, case):
    command, content = HOSTILE[case]
    p = tmp_path / "input.json"
    p.write_text(json.dumps(content))
    for fmt in ("human", "json"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(p), "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err.startswith("input error: file of") and f"at most {cli.MAX_FILE_DIGITS}" in err


@pytest.fixture(scope="module")
def over_the_byte_bound(tmp_path_factory):
    """A file of MAX_FILE_BYTES + 1 spaces: no digits, and no JSON value."""
    p = tmp_path_factory.mktemp("bytes") / "spaces.json"
    with open(p, "wb") as fh:
        fh.write(b" " * (MAX_FILE_BYTES + 1))
    return str(p)


BYTE_BOUND_PATHS = ["OVER"] + (["/dev/zero"] if os.path.exists("/dev/zero") else [])


@pytest.mark.parametrize("path", BYTE_BOUND_PATHS)
@pytest.mark.parametrize("command", [["matrix", "hnf"], ["matrix", "snf"], ["check-ses"],
                                     ["cech"]], ids="-".join)
def test_file_over_the_byte_bound_exit_2(capsys, over_the_byte_bound, command, path):
    path = over_the_byte_bound if path == "OVER" else path
    for fmt in ("human", "json"):
        start = time.perf_counter()
        code, out, err = run(capsys, *command, path, "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert err == f"input error: file of more than {MAX_FILE_BYTES} bytes\n"


@pytest.mark.parametrize("path", BYTE_BOUND_PATHS)
def test_catalog_over_the_byte_bound_gives_no_verdict(capsys, over_the_byte_bound, path):
    path = over_the_byte_bound if path == "OVER" else path
    code, out, err = run(capsys, "invariants", "SL(2)", "--catalog", path, "--format", "json")
    assert code == 0 and not err
    assert "matches-catalog" not in json.loads(out)["verdicts"]


def test_an_error_after_the_input_is_read_is_not_an_input_error(monkeypatch):
    # only reading and parsing the input can give exit 2; a ValueError
    # raised by the algebra is a fault of redinv, and propagates
    def fail(_):
        raise ValueError("not an input error")

    monkeypatch.setattr(cli, "datum_invariants", fail)
    with pytest.raises(ValueError, match="not an input error"):
        main(["invariants", "SL(2)"])
