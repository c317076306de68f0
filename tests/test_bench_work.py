"""Work counts of the benchmark's seed-1 streams stay below fixed bounds.

The same in-process replay as ``tests/test_bench_records.py`` (warm-up op
first, input files in a scratch working directory, ``REDINV_CATALOG``
unset) counts two kinds of lattice work, which are deterministic, so the
bounds guard a speed-up without timing anything:

- carried eliminations, the solver's eliminations of [m | I; rels | 0]
  (``intmat._Solve._eliminate``), on ``rank_sweep``: 373 before yes/no
  verdicts and cokernels read the image basis, 236 after;
- one-pass ``_hermite_pivots`` scans of relations from outside, made when
  an ``FgAbelianGroup`` is built, on ``cli_mix``: 1874 before
  ``block_diag`` certified its result and cokernels took the image basis,
  156 after.

It reads ``perfbench/`` and changes nothing in it.
"""

import pytest

from test_bench_records import _execute  # puts the repository root on sys.path

from perfbench import run, workloads  # noqa: E402
from redinv import abgrp, intmat  # noqa: E402

BOUNDS = {"rank_sweep": ("carried", 260), "cli_mix": ("scans", 300)}


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_seed_one_work_counts_stay_bounded(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDINV_CATALOG", raising=False)
    _execute(workloads.WARMUP[workload])
    counts = {"carried": 0, "scans": 0}
    eliminate, scan = intmat._Solve._eliminate, abgrp._hermite_pivots

    def counting_eliminate(solve):
        counts["carried"] += solve.piv is None
        eliminate(solve)

    def counting_scan(m):
        counts["scans"] += 1
        return scan(m)
    monkeypatch.setattr(intmat._Solve, "_eliminate", counting_eliminate)
    monkeypatch.setattr(abgrp, "_hermite_pivots", counting_scan)
    for op in workloads.stream(workload, 1, str(run.DATA)):
        _execute(op)
    name, bound = BOUNDS[workload]
    assert counts[name] <= bound, counts
