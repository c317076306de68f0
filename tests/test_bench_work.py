"""Work counts of the benchmark's seed-1 streams stay below fixed bounds.

The same in-process replay as ``tests/test_bench_records.py`` (warm-up op
first, input files in a scratch working directory, ``REDINV_CATALOG``
unset) counts seven kinds of work, which are deterministic, so the bounds
guard a speed-up without timing anything:

- carried eliminations, the solver's eliminations of [m | I; rels | 0]
  over every row and column of m against all of rels
  (``intmat._Solve._eliminate``), on ``rank_sweep``: 373 before yes/no
  verdicts and cokernels read the image basis, 236 after, 18 since the
  pushout resolution builds mu' in closed form, a kernel read alone is
  eliminated on the rows and columns that the relations leave (not
  counted here), and a square beta's zero kernel is read off its image
  basis, and 15 since every solve eliminates only those rows and columns
  (not counted here);
- eliminations, every elimination of the solver, restricted or not, on
  ``cli_mix``, ``rank_sweep`` and ``bar_cohomology``: 788, 120 and 457
  while a kernel read before the coordinates was eliminated alone and
  again with them, 785, 120 and 457 since one elimination serves both,
  and 703 on ``cli_mix`` since class coordinates are read on the kernel
  basis by back-substitution, so an identity kernel basis needs no solve;
- groups built from relations with no certificate
  (``abgrp.FgAbelianGroup``), which ``hermite_basis`` scans and may
  eliminate, on ``cli_mix``: 1874 before ``block_diag`` certified its
  result and cokernels took the image basis, 156 after, 286 since the
  130 pushout ops build mu' from its closed-form Hermite basis, which
  ``hermite_basis`` certifies in one pass, and 156 again since mu' is
  P/H, whose relations H come certified; on ``rank_sweep`` 55, one per
  pushout op, while mu' was built on X_rad (+) P, and 0 since;
- runs of the elimination kernel ``intmat._echelon``, of any kind: 3041,
  579 and 1283 on ``cli_mix``, ``rank_sweep`` and ``bar_cohomology``
  while subquotients stacked their denominator, 2295, 444 and 1045 since
  it is the image basis, 790 on ``bar_cohomology`` since H^2 reads
  ker d2 off the relator peeling (``gammamod._resolution``) instead of
  eliminating d2, and 1795 on ``cli_mix`` since ``redinv cech`` reads
  H^i for i >= 2 off the homotopy identity it verifies, and 1526 on
  ``cli_mix`` and 343 on ``rank_sweep`` since the change that cut the
  carried eliminations above; 1453, 334 and 785 on the three streams
  while class coordinates were solved modulo the image basis, and 1371 on
  ``cli_mix`` (the others unchanged) since they are read on the kernel
  basis; on the first 32 ops of
  ``dense_normal_forms`` (as below) 88, one for every ``hnf`` call, while
  ``hnf`` eliminated its rows, and 0 since it inserts them one at a time
  into a Hermite form (the stream's matrices are square and nonsingular,
  so no row reduces to zero);
- solves (``intmat._Solve``) against relations with no certificate, none
  on any stream since the solver takes ``hermite_basis`` of what it is
  given (1021, 164 and 329 before);
- Cech cohomology groups computed as subquotients
  (``cech.cech_cohomology``) on ``cli_mix``: 466 while every degree was
  one, 156 since only degrees 0 and 1 and those whose homotopy identity
  fails are;
- eliminations in ``intmat.hnf`` that carry U entry by entry, more than
  one carried entry a row, on the first 32 ops of ``dense_normal_forms``
  (as ``tests/test_bench_records.py`` takes them): 88, those of every
  ``hnf`` call, while U was always carried so, 0 since independent rows
  carry it packed into one integer a row (the stream's matrices are
  square and nonsingular).

It reads ``perfbench/`` and changes nothing in it.
"""

import sys
from itertools import islice

import pytest

from test_bench_records import DENSE_OPS, _execute  # puts the repository root on sys.path

from perfbench import run, workloads  # noqa: E402
from redinv import abgrp, cech, intmat  # noqa: E402

BOUNDS = {
    "cli_mix": {"uncertified groups": 160, "echelon runs": 1900, "uncertified solves": 0,
                "cech subquotients": 160, "eliminations": 703},
    "rank_sweep": {"carried": 40, "uncertified groups": 0, "echelon runs": 360,
                   "uncertified solves": 0, "eliminations": 120},
    "bar_cohomology": {"echelon runs": 850, "uncertified solves": 0, "eliminations": 457},
    "dense_normal_forms": {"echelon runs": 0, "entrywise hnf eliminations": 0},
}


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_seed_one_work_counts_stay_bounded(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REDINV_CATALOG", raising=False)
    _execute(workloads.WARMUP[workload])
    counts = dict.fromkeys(("carried", "eliminations", "uncertified groups", "echelon runs",
                            "uncertified solves", "cech subquotients",
                            "entrywise hnf eliminations"), 0)
    eliminate, echelon, cohomology = intmat._Solve._eliminate, intmat._echelon, cech.cech_cohomology
    hnf = intmat.hnf.__code__
    solve, group = intmat._Solve.__init__, abgrp.FgAbelianGroup.__post_init__

    def counting_eliminate(s):
        if s.piv is None:
            counts["eliminations"] += 1
            counts["carried"] += s.rest is s.rels and all(map(any, s.rows))
        eliminate(s)

    def counting_echelon(rows, c):
        counts["echelon runs"] += 1
        if sys._getframe(1).f_code is hnf and rows and len(rows[0]) > c + 1:
            counts["entrywise hnf eliminations"] += 1
        return echelon(rows, c)

    def counting_solve(s, m, rels):
        counts["uncertified solves"] += rels is not None and rels._pivots is None
        solve(s, m, rels)

    def counting_group(g):
        counts["uncertified groups"] += g.relations._pivots is None
        group(g)

    def counting_cohomology(cx, i):
        counts["cech subquotients"] += 1
        return cohomology(cx, i)
    monkeypatch.setattr(intmat._Solve, "_eliminate", counting_eliminate)
    monkeypatch.setattr(intmat, "_echelon", counting_echelon)
    monkeypatch.setattr(intmat._Solve, "__init__", counting_solve)
    monkeypatch.setattr(abgrp.FgAbelianGroup, "__post_init__", counting_group)
    monkeypatch.setattr(cech, "cech_cohomology", counting_cohomology)
    ops = workloads.stream(workload, 1, str(run.DATA))
    if workload == "dense_normal_forms":
        ops = islice(ops, DENSE_OPS)
    for op in ops:
        _execute(op)
    over = {name: counts[name] for name, bound in BOUNDS[workload].items()
            if counts[name] > bound}
    assert over == {}, counts
