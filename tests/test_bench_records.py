"""The benchmark's seed-1 records are unchanged, checked without a benchmark run.

``perfbench/run.py`` hashes every record of a workload's op stream into
``records_sha256``; a refactor must leave that digest as it was.  This test
runs the seed-1 ``cli_mix``, ``rank_sweep`` and ``bar_cohomology`` streams,
and the first 32 ops of ``dense_normal_forms`` (about 1 s of its 5 s), in
process through ``perfbench.run.execute``, as the benchmark's workload
process does (warm-up op first, input files in a scratch working
directory, ``REDINV_CATALOG`` unset), and hashes the records with
``perfbench.run.judge_all``.  It reads ``perfbench/`` and changes nothing
in it.  The golden ``matrix`` records of ``tests/test_records.py`` pin more
normal forms.
"""

import os
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import run, workloads  # noqa: E402
from redinv import catalogio, cli, gammamod  # noqa: E402

# records_sha256 that ``python3 perfbench/run.py --seed 1`` prints, and the
# same digest of the first DENSE_OPS ops of dense_normal_forms
RECORDS_SHA256 = {
    "cli_mix": "595464907b25d8beb0495bb6be01611606e83067b8deb660ff0903e0bf2ccb22",
    "rank_sweep": "b41d55a7fe2d07803bab85ad29db7c7a6720e6dff4d80cf0097bf64847dbcbfc",
    "bar_cohomology": "2987905cff091b63325f9242ff2b4253ba5169b747bfec9ab745ead1d449aca3",
    "dense_normal_forms": "b827377fa2c3115b5be1690f11fb6a09bfbb92c9c4707185716ff2a81c7b25a1",
}
DENSE_OPS = 32


def _execute(op) -> dict:
    for name, text in op.files:
        Path(name).write_text(text, encoding="utf-8")
    code, out, error = run.execute(op, cli, gammamod, catalogio)
    for name, _ in op.files:
        os.remove(name)
    return {"exit": code, "error": error, "out": out}


@pytest.mark.parametrize("workload", sorted(RECORDS_SHA256))
def test_seed_one_records_are_unchanged(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDINV_CATALOG", raising=False)
    _execute(workloads.WARMUP[workload])
    ops = workloads.stream(workload, 1, str(run.DATA))
    if workload == "dense_normal_forms":
        ops = islice(ops, DENSE_OPS)
    lines = [_execute(op) for op in ops]
    checked = run.judge_all(workload, 1, lines)
    assert [(i, reason) for i, _, reason in checked["failures"]] == []
    assert checked["sha"] == RECORDS_SHA256[workload]
