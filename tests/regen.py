"""Builders of the shipped data files in ``src/redinv/data/``.

``catalog.json`` holds the expected invariants of every catalog spec, and
each ``ses_*.json`` one short exact sequence fixture: 1 -> G_m -> GL(n) ->
PGL(n) -> 1 or 1 -> SL(n) -> GL(n) -> G_m -> 1, for n = 2..6.
``data_files`` builds them all in memory, and ``tests/test_catalogio.py``
checks that they match the shipped files byte for byte.  To rewrite the
files from a checkout:

    PYTHONPATH=src python tests/regen.py
"""

from __future__ import annotations

import os

from redinv.catalogio import (
    SCHEMA_VERSION,
    CatalogEntry,
    CatalogFile,
    _dump,
    datum_invariants,
)
from redinv.intmat import mat
from redinv.rootdata import from_catalog
from redinv.tres import SESData

DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "redinv", "data")

CATALOG_SPECS = [
    "SL(2)", "SL(3)", "SL(4)", "GL(2)", "GL(3)", "PGL(2)", "PGL(3)", "PGL(4)",
    "Sp(4)", "SO(5)", "SO(8)", "Spin(7)", "Spin(8)", "G2", "F4", "E6sc", "E6ad",
    "E7ad", "E8", "T(1)", "T(2)", "PSO(8)", "SL(3)xGamma:flip", "PGL(3)xGamma:flip",
    "Spin(8)xGamma:triality", "PSO(8)xGamma:triality",
]
PROVENANCE = "smith-normal-form of the coroot pairing matrix"
SES_RANKS = range(2, 7)


def catalog_to_json(catalog: CatalogFile) -> str:
    return _dump({
        "schemaVersion": catalog.schema_version,
        "entries": [
            {
                "spec": e.spec,
                "expected": e.expected,
                "provenance": e.provenance,
            }
            for e in catalog.entries
        ],
    })


def build_catalog(specs: list[str], provenance: str) -> CatalogFile:
    """Compute expected invariants for the given group specs."""
    entries = (CatalogEntry(spec, datum_invariants(from_catalog(spec)), provenance)
               for spec in specs)
    return CatalogFile(SCHEMA_VERSION, tuple(entries))


def ses_to_json(s: SESData) -> str:
    return _dump({
        "g1": s.g1.name,
        "g2": s.g2.name,
        "g3": s.g3.name,
        "x3ToX2": s.x3_to_x2.to_json(),
        "x2ToX1": s.x2_to_x1.to_json(),
        "part1": list(s.part1),
        "part3": list(s.part3),
    })


def ses_gm_gl_pgl(n: int) -> SESData:
    """The central extension of PGL(n) by the scaling torus inside GL(n)."""
    g1 = from_catalog("T(1)")
    g2 = from_catalog(f"GL({n})")
    g3 = from_catalog(f"PGL({n})")
    rows = []
    for j in range(n - 1):
        v = [0] * n
        v[j], v[j + 1] = 1, -1
        rows.append(v)
    x3_to_x2 = mat(rows, n)
    x2_to_x1 = mat([[1]] * n, 1)
    return SESData(g1, g2, g3, x3_to_x2, x2_to_x1, (), tuple(range(n - 1)))


def ses_sl_gl_gm(n: int) -> SESData:
    """SL(n) inside GL(n) with determinant quotient."""
    g1 = from_catalog(f"SL({n})")
    g2 = from_catalog(f"GL({n})")
    g3 = from_catalog("T(1)")
    x3_to_x2 = mat([[1] * n], n)
    # restrict a diagonal character to the determinant-one torus, written
    # on the fundamental-weight basis of SL(n)
    rows = []
    for i in range(n):
        row = [0] * (n - 1)
        if i < n - 1:
            row[i] += 1
        if i >= 1:
            row[i - 1] -= 1
        rows.append(row)
    x2_to_x1 = mat(rows, n - 1)
    return SESData(g1, g2, g3, x3_to_x2, x2_to_x1, tuple(range(n - 1)), ())


def data_files() -> dict[str, str]:
    """File name -> content of every file in ``src/redinv/data/``."""
    files = {"catalog.json": catalog_to_json(build_catalog(CATALOG_SPECS, PROVENANCE))}
    for n in SES_RANKS:
        files[f"ses_gm_gl{n}_pgl{n}.json"] = ses_to_json(ses_gm_gl_pgl(n))
        files[f"ses_sl{n}_gl{n}_gm.json"] = ses_to_json(ses_sl_gl_gm(n))
    return files


if __name__ == "__main__":
    for name, text in data_files().items():
        with open(os.path.join(DATA, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
