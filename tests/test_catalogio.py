import importlib.resources
import json
import os

import pytest

from redinv.catalogio import (
    _BLOCK,
    MAX_FILE_BYTES,
    CatalogError,
    ResultRecord,
    default_catalog_path,
    input_digest,
    invariants_json,
    load_catalog,
    read_bounded,
    verify_catalog,
)
from redinv.intmat import mat
from redinv.abgrp import FgAbelianGroup

from regen import DATA, build_catalog, catalog_to_json, data_files


class TestInvariantsJson:
    def test_free(self):
        assert invariants_json(FgAbelianGroup.free(2)) == {"rank": 2, "torsion": []}

    def test_torsion(self):
        g = FgAbelianGroup(1, mat([[4]]))
        assert invariants_json(g) == {"rank": 0, "torsion": [4]}


class TestShippedCatalog:
    def test_loads_and_self_tests(self):
        catalog = load_catalog()
        assert len(catalog.entries) >= 15
        specs = catalog.specs()
        assert "SL(2)" in specs
        assert any("xGamma:" in s for s in specs)

    def test_round_trip_byte_identical(self):
        catalog = load_catalog()
        with open(default_catalog_path(), "rb") as fh:
            original = fh.read()
        assert catalog_to_json(catalog).encode() == original

    def test_env_override(self, tmp_path, monkeypatch):
        other = tmp_path / "other.json"
        other.write_text(catalog_to_json(build_catalog(["SL(2)"], "test")))
        monkeypatch.setenv("REDINV_CATALOG", str(other))
        catalog = load_catalog()
        assert catalog.specs() == ["SL(2)"]


class TestDefaultCatalogPath:
    def test_shipped_file_as_package_resources_name_it(self, monkeypatch):
        monkeypatch.delenv("REDINV_CATALOG", raising=False)
        want = str(importlib.resources.files("redinv").joinpath("data/catalog.json"))
        assert default_catalog_path() == want

    def test_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REDINV_CATALOG", str(tmp_path / "other.json"))
        assert default_catalog_path() == str(tmp_path / "other.json")


class TestDiagnostics:
    def _base_entry(self):
        return {
            "spec": "SL(2)",
            "expected": {
                "characterGroup": {"rank": 0, "torsion": []},
                "muDual": {"rank": 0, "torsion": []},
                "pi1": {"rank": 0, "torsion": []},
            },
            "provenance": "test",
        }

    def _write(self, tmp_path, obj):
        p = tmp_path / "cat.json"
        p.write_text(json.dumps(obj))
        return str(p)

    def test_bad_schema_version(self, tmp_path):
        path = self._write(tmp_path, {"schemaVersion": 99, "entries": [self._base_entry()]})
        with pytest.raises(CatalogError, match="schemaVersion"):
            load_catalog(path)

    def test_missing_expected_field(self, tmp_path):
        entry = self._base_entry()
        del entry["expected"]["muDual"]
        path = self._write(tmp_path, {"schemaVersion": 1, "entries": [entry]})
        with pytest.raises(CatalogError, match=r"entries\[0\].expected.muDual"):
            load_catalog(path)

    def test_bad_torsion_chain(self, tmp_path):
        entry = self._base_entry()
        entry["expected"]["pi1"] = {"rank": 0, "torsion": [3, 2]}
        path = self._write(tmp_path, {"schemaVersion": 1, "entries": [entry]})
        with pytest.raises(CatalogError, match="divisibility"):
            load_catalog(path)

    def test_self_test_catches_wrong_value(self, tmp_path):
        entry = self._base_entry()
        entry["expected"]["pi1"] = {"rank": 0, "torsion": [7]}
        path = self._write(tmp_path, {"schemaVersion": 1, "entries": [entry]})
        with pytest.raises(CatalogError, match="SL\\(2\\)"):
            load_catalog(path)

    def test_boolean_rank(self, tmp_path):
        with open(default_catalog_path(), encoding="utf-8") as fh:
            raw = json.load(fh)
        entry = next(e for e in raw["entries"] if e["spec"] == "GL(2)")
        assert entry["expected"]["characterGroup"]["rank"] == 1
        entry["expected"]["characterGroup"]["rank"] = True
        path = self._write(tmp_path, raw)
        with pytest.raises(CatalogError, match="characterGroup: rank"):
            load_catalog(path)

    def test_empty_entries(self, tmp_path):
        path = self._write(tmp_path, {"schemaVersion": 1, "entries": []})
        with pytest.raises(CatalogError, match="entries"):
            load_catalog(path)


class TestBuildCatalog:
    def test_build_then_verify(self):
        catalog = build_catalog(["PGL(3)", "Sp(4)"], "recomputed")
        verify_catalog(catalog)
        assert catalog.entries[0].expected["pi1"] == {"rank": 0, "torsion": [3]}

    def test_deterministic_serialization(self):
        c1 = build_catalog(["SL(2)", "G2"], "x")
        c2 = build_catalog(["SL(2)", "G2"], "x")
        assert catalog_to_json(c1) == catalog_to_json(c2)


class TestRegeneration:
    def test_builders_rebuild_every_shipped_file(self):
        files = data_files()
        assert len(files) == 11
        assert sorted(files) == sorted(os.listdir(DATA))
        for name, text in files.items():
            with open(os.path.join(DATA, name), "rb") as fh:
                assert text.encode() == fh.read(), name


class TestResultRecords:
    def test_round_trip(self):
        digest = input_digest({"spec": "SL(2)"})
        outputs = {"pi1": {"rank": 0, "torsion": []}}
        rec = ResultRecord("invariants", digest, outputs, {"datum-valid": True})
        assert json.loads(rec.to_json()) == {
            "command": "invariants",
            "inputDigest": digest,
            "outputs": outputs,
            "verdicts": {"datum-valid": True},
        }

    def test_digest_stable(self):
        assert input_digest({"a": 1, "b": 2}) == input_digest({"b": 2, "a": 1})
        assert input_digest({"a": 1}) != input_digest({"a": 2})

    def test_json_ends_with_newline(self):
        rec = ResultRecord("x", "y", {}, {})
        assert rec.to_json().endswith("\n")


class TestReadBounded:
    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK])
    def test_every_byte_is_read_around_the_block(self, tmp_path, size):
        data = bytes(i % 251 for i in range(size))
        p = tmp_path / "f.bin"
        p.write_bytes(data)
        assert read_bounded(str(p)) == data

    def test_the_bound_is_inclusive(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"7" * MAX_FILE_BYTES)
        assert len(read_bounded(str(p))) == MAX_FILE_BYTES
        with open(p, "ab") as fh:
            fh.write(b"7")
        with pytest.raises(ValueError, match=f"more than {MAX_FILE_BYTES} bytes"):
            read_bounded(str(p))
