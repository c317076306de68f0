"""Golden records: the JSON stdout of every catalog, fixture and cech command.

``data/records.json`` maps each argv, joined by single spaces, to the
sha256 of the record that ``--format json`` prints.  Besides the catalog,
it pins five classical specs of rank 14 or more, whose pushout resolutions
solve the largest subgroup-coordinate systems.  ``check-ses`` and
``cech`` hash the path string into the input digest, so they run from the
input's directory with a bare file name.
"""

import hashlib
import json
import os

import pytest

from redinv.catalogio import default_catalog_path, load_catalog
from redinv.cli import main


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


def test_every_catalog_spec_and_fixture_is_covered():
    want = set()
    for spec in load_catalog(default_catalog_path(), self_test=False).specs():
        want |= {
            f"invariants {spec} --format json",
            f"pi1d {spec} --format json",
            f"pi1d {spec} --resolution pushout --format json",
        }
    for spec in LARGE_SPECS:
        want |= {
            f"invariants {spec} --format json",
            f"pi1d {spec} --resolution pushout --format json",
        }
    want |= {
        f"check-ses {name} --format json"
        for name in os.listdir(DATA_DIR) if name.startswith("ses_")
    }
    want |= {f"cech cech.json --max-degree {k} --format json" for k in range(3, 9)}
    assert set(GOLDEN) == want


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_record_is_byte_identical(command, capsys, monkeypatch, tmp_path):
    argv = command.split(" ")
    if argv[0] == "check-ses":
        monkeypatch.chdir(DATA_DIR)
    elif argv[0] == "cech":
        (tmp_path / argv[1]).write_text(json.dumps(CECH_INPUT))
        monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
