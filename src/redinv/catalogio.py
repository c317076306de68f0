"""Catalog files and result records.

All JSON is written with sorted keys and explicit separators so that
identical inputs produce byte-identical files.  Matrices are stored as
arrays of arrays of decimal integer strings.  ``input_digest`` imports
``hashlib`` itself, so loading the catalog or printing a human-format
result does not import it.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from .intmat import int_from_json
from .abgrp import FgAbelianGroup
from .rootdata import (
    ReductiveDatum,
    character_group,
    from_catalog,
    mu_dual,
    pi1,
    validate,
)
from .value import Value

SCHEMA_VERSION = 1

# Most bytes of any file that redinv reads, so that no file, /dev/zero
# among them, makes an unbounded read.  A file is read in one block of
# _BLOCK bytes, and read on only when it fills that block, so a small file
# costs no buffer of the bound's size.
MAX_FILE_BYTES = 1 << 24
_BLOCK = 1 << 16


class CatalogError(ValueError):
    """Schema violation or failed self-test, with a field diagnostic."""


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def invariants_json(g: FgAbelianGroup) -> dict:
    rank, torsion = g.invariants()
    return {"rank": rank, "torsion": list(torsion)}


def datum_invariants(d: ReductiveDatum) -> dict:
    """The invariants a catalog entry records for a datum."""
    return {
        "characterGroup": invariants_json(character_group(d).group),
        "muDual": invariants_json(mu_dual(d).group),
        "pi1": invariants_json(pi1(d).group),
    }


class CatalogEntry(Value):
    """One group spec of the catalog with its stored invariants."""

    # expected: the stored invariants, keyed as datum_invariants keys them
    FIELDS = ("spec", "expected", "provenance")


class CatalogFile(Value):
    """The parsed catalog: its schema version and entries."""

    FIELDS = ("schema_version", "entries")

    def specs(self) -> list[str]:
        return [e.spec for e in self.entries]


def default_catalog_path() -> str:
    env = os.environ.get("REDINV_CATALOG")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "catalog.json")


def read_bounded(path: str) -> bytes:
    """The bytes of the file at path, if it holds at most MAX_FILE_BYTES."""
    with open(path, "rb") as fh:
        data = fh.read(_BLOCK)
        if len(data) == _BLOCK:
            data += fh.read(MAX_FILE_BYTES + 1 - _BLOCK)
    if len(data) > MAX_FILE_BYTES:
        raise ValueError(f"file of more than {MAX_FILE_BYTES} bytes")
    return data


def _require(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise CatalogError(f"{field}: {msg}")


def _check_invariant_dict(obj, field: str) -> dict:
    _require(isinstance(obj, dict), field, "expected an object")
    _require(type(obj.get("rank")) is int and obj["rank"] >= 0, field,
             "rank must be a nonnegative integer")
    tor = obj.get("torsion")
    _require(isinstance(tor, list) and all(type(d) is int and d > 1 for d in tor),
             field, "torsion must be a list of integers > 1")
    for a, b in zip(tor, tor[1:]):
        _require(b % a == 0, field, "torsion must form a divisibility chain")
    return {"rank": obj["rank"], "torsion": list(tor)}


def _parse_catalog(text: str) -> CatalogFile:
    raw = json.loads(text, parse_int=int_from_json)
    _require(isinstance(raw, dict), "(root)", "expected an object")
    _require(raw.get("schemaVersion") == SCHEMA_VERSION, "schemaVersion",
             f"expected {SCHEMA_VERSION}")
    entries_raw = raw.get("entries")
    _require(isinstance(entries_raw, list) and entries_raw, "entries",
             "expected a nonempty list")
    entries = []
    for k, e in enumerate(entries_raw):
        field = f"entries[{k}]"
        _require(isinstance(e, dict), field, "expected an object")
        _require(isinstance(e.get("spec"), str), f"{field}.spec", "expected a string")
        exp = e.get("expected")
        _require(isinstance(exp, dict), f"{field}.expected", "expected an object")
        expected = {key: _check_invariant_dict(exp.get(key), f"{field}.expected.{key}")
                    for key in ("characterGroup", "muDual", "pi1")}
        entries.append(CatalogEntry(e["spec"], expected, str(e.get("provenance", ""))))
    return CatalogFile(SCHEMA_VERSION, tuple(entries))


# The bytes of the catalog parsed last and what they gave.  A call whose
# file holds the same bytes skips the parse and the schema check, and gets
# its own copy of each expected dict, so no caller's edit reaches another.
_parsed: Optional[tuple[bytes, CatalogFile]] = None


def _parsed_catalog(path: Optional[str]) -> CatalogFile:
    """The parsed catalog at path, read on every call and parsed again only
    when its bytes differ from those parsed last."""
    global _parsed
    data = read_bounded(path or default_catalog_path())
    if _parsed is None or _parsed[0] != data:
        _parsed = data, _parse_catalog(data.decode("utf-8"))
    return _parsed[1]


def _copy_expected(expected: dict) -> dict:
    return {key: {"rank": inv["rank"], "torsion": list(inv["torsion"])}
            for key, inv in expected.items()}


def load_catalog(path: Optional[str] = None) -> CatalogFile:
    """The catalog at path, with its own copy of every expected dict, once
    verify_catalog has recomputed every entry."""
    catalog = CatalogFile(SCHEMA_VERSION, tuple(
        CatalogEntry(e.spec, _copy_expected(e.expected), e.provenance)
        for e in _parsed_catalog(path).entries))
    verify_catalog(catalog)
    return catalog


def catalog_expected(spec: str, path: Optional[str] = None) -> Optional[dict]:
    """A copy of the expected invariants of the first catalog entry for
    spec, and None when no entry names it."""
    entry = next((e for e in _parsed_catalog(path).entries if e.spec == spec), None)
    return None if entry is None else _copy_expected(entry.expected)


def verify_catalog(catalog: CatalogFile) -> None:
    for entry in catalog.entries:
        d = from_catalog(entry.spec)
        rep = validate(d)
        _require(rep.passed, entry.spec, f"datum invalid: {rep.failures()}")
        got, want = datum_invariants(d), entry.expected
        _require(got == want, entry.spec,
                 f"recomputed invariants {got} differ from stored {want}")


class ResultRecord(Value):
    """What a command prints: its outputs and verdicts, keyed by its input's digest."""

    FIELDS = ("command", "input_digest", "outputs", "verdicts")

    def to_json(self) -> str:
        return _dump({
            "command": self.command,
            "inputDigest": self.input_digest,
            "outputs": self.outputs,
            "verdicts": self.verdicts,
        })


def input_digest(payload) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

