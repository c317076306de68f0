"""Golden records: the JSON stdout of every catalog, fixture and cech command.

``data/records.json`` maps each argv, joined by single spaces, to the
sha256 of the record that ``--format json`` prints, and of the human
output of ``pi1d`` (both resolutions), ``check-ses`` and ``cech`` at the
least and the greatest degree, whose check lines follow the order of the
checks.  Besides the catalog,
it pins five classical specs of rank 14 or more, whose pushout resolutions
solve the largest subgroup-coordinate systems.  ``check-ses`` and ``cech``
hash the input file's bytes into the input digest; their keys name the
fixture in the shipped data directory, or the cech input written below.
``check-ses`` runs from the data directory and ``cech`` from the directory
of its input, since their human output names the file as given.
``matrix hnf`` and ``matrix snf`` records pin H, U, D and V byte for byte
on seven matrices written below: a sparse 0/+-1 bar matrix (tall, so its
U is not unique), two dense square ones, a wide one of full row rank, a
square one of rank one less than its size, a unimodular one whose U, its
inverse, has entries of 259 bits, and the rows of an upper triangular one
with no unit on its diagonal in random order, so that rows inserted into
a Hermite form land between its pivots and meet pivots other than 1.
``hnf`` carries U packed into one integer per row unless the rows are
more than the columns or dependent, and these records pin both routes.
"""

import hashlib
import json
import os
import random
import shutil

import pytest

from redinv.catalogio import default_catalog_path, load_catalog
from redinv.cli import main
from redinv.gammamod import induced_module

from oracles import (
    dihedral_group,
    full_bar_differential,
    lower_bidiagonal,
    permuted_triangular,
    random_matrix,
    with_dependent_column,
)


DATA_DIR = os.path.dirname(default_catalog_path())
with open(os.path.join(os.path.dirname(__file__), "data", "records.json"),
          encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

# phi: Z/4 (+) Z -> Z/6 (+) Z, well defined since 4 * (3, 0) = (12, 0) is a relation
CECH_INPUT = {
    "fx": {"ambientRank": 2, "relations": [["4", "0"]]},
    "fg": {"ambientRank": 2, "relations": [["6", "0"]]},
    "phi": [["3", "0"], ["2", "5"]],
}

# no catalog spec reaches rank 14
LARGE_SPECS = ("SL(17)", "PGL(17)", "GL(16)", "Sp(32)", "PSO(32)")

# the transposed degree-1 bar differential of Z[S3] (216 x 36), as the
# kernel computations of group cohomology see it, two dense square matrices,
# a wide 12 x 20 one of rank 12, a 16 x 16 one of rank 15, the 40 x 40
# lower bidiagonal one with -99 below the diagonal and the rows of a 20 x 20
# upper triangular one with diagonal entries of 2 to 9 in absolute value
MATRIX_INPUTS = {
    "bar.json": full_bar_differential(induced_module(dihedral_group(3), 1), 1).matrix.transpose(),
    "dense12.json": random_matrix(random.Random(12), 12, 12, 9),
    "dense24.json": random_matrix(random.Random(24), 24, 24, 9),
    "wide12x20.json": random_matrix(random.Random(20), 12, 20, 99),
    "rank15.json": with_dependent_column(random_matrix(random.Random(16), 16, 15, 20), 7),
    "bidiagonal40.json": lower_bidiagonal(40, -99),
    "triangular20.json": permuted_triangular(random.Random(50), 20, 9),
}


def test_every_catalog_spec_and_fixture_is_covered():
    want = set()
    for spec in load_catalog(default_catalog_path()).specs():
        want |= {
            f"invariants {spec} --format json",
            f"pi1d {spec} --format json",
            f"pi1d {spec} --resolution pushout --format json",
            f"pi1d {spec} --format human",
            f"pi1d {spec} --resolution pushout --format human",
        }
    for spec in LARGE_SPECS:
        want |= {
            f"invariants {spec} --format json",
            f"pi1d {spec} --resolution pushout --format json",
        }
    want |= {
        f"check-ses {name} --format {fmt}"
        for name in os.listdir(DATA_DIR) if name.startswith("ses_")
        for fmt in ("json", "human")
    }
    want |= {f"cech cech.json --max-degree {k} --format json" for k in range(3, 9)}
    want |= {f"cech cech.json --max-degree {k} --format human" for k in (3, 8)}
    want |= {
        f"matrix {kind} {name} --format json"
        for kind in ("hnf", "snf") for name in MATRIX_INPUTS
    }
    assert set(GOLDEN) == want


def _record(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_record_is_byte_identical(command, capsys, tmp_path, monkeypatch):
    argv = command.split(" ")
    if argv[0] == "check-ses":
        monkeypatch.chdir(DATA_DIR)
    elif argv[0] == "cech":
        (tmp_path / argv[1]).write_text(json.dumps(CECH_INPUT))
        monkeypatch.chdir(tmp_path)
    elif argv[0] == "matrix":
        path = tmp_path / argv[2]
        path.write_text(json.dumps(MATRIX_INPUTS[argv[2]].to_json()))
        argv[2] = str(path)
    out = _record(argv, capsys)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


@pytest.mark.parametrize("command", ["check-ses", "cech"])
def test_digest_follows_content_not_path(command, capsys, tmp_path):
    if command == "check-ses":
        names = sorted(n for n in os.listdir(DATA_DIR) if n.startswith("ses_"))
        first, second = (os.path.join(DATA_DIR, n) for n in names[:2])
    else:
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_text(json.dumps(CECH_INPUT))
        other = dict(CECH_INPUT, phi=[["0", "0"], ["0", "1"]])
        second.write_text(json.dumps(other))
    records = []
    for k, src in enumerate((first, first, second)):
        # the first file copied into two directories, then a different
        # file under the same name
        (tmp_path / str(k)).mkdir()
        path = tmp_path / str(k) / "input.json"
        shutil.copyfile(src, path)
        records.append(_record([command, str(path), "--format", "json"], capsys))
    assert records[0] == records[1]
    digests = [json.loads(r)["inputDigest"] for r in records]
    assert digests[0] != digests[2]
