"""A/B replay of the seed-1 benchmark streams in one process.

Runs every op of a workload on a parent checkout's ``redinv`` and on this
checkout's ``src/``, alternating the two op by op, and keeps each side's
best time per op over ``--rounds`` rounds (the side that goes first swaps
every round).  Machine drift between two separate benchmark runs so
cancels out of the ratio.  For each workload it prints the op count, the
two sums of per-op best times, their ratio (change over parent) and the
number of ops whose exit code, output or uncaught error differ, and it
exits 1 if any does.  A second line gives the ratios of the Harrell-Davis
p50 and p90 of the per-op best times (``perfbench.run.harrell_davis``, as
the benchmark's ``latency_p50_ms`` and ``latency_p90_ms`` take them).

The parent's ``redinv`` is copied to a temporary directory under the name
``redinv_parent``, so both packages import side by side.  A module of the
copy that imported ``redinv`` by absolute name would run this checkout's
code instead, so the replay refuses such a copy.  Ops come from
``perfbench.workloads.stream`` and run through ``perfbench.run.execute``,
as in the benchmark, in a temporary working directory; nothing under
``perfbench/`` is written.  Every op of a stream is replayed unless
``--max-ops`` says otherwise: one round of the whole 160-op
``dense_normal_forms`` stream takes about 5 s for both sides together (2
vCPUs, Python 3.11), and the other streams less.

From the repository root, with the parent commit checked out beside it:

    git worktree add ../parent HEAD~1
    python3 tests/ab_replay.py --parent-src ../parent/src
    python3 tests/ab_replay.py --parent-src ../parent/src --rounds 5 --workload cli_mix
    git worktree remove ../parent
"""

from __future__ import annotations

import argparse
import ast
import importlib
import itertools
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 1
PARENT = "redinv_parent"
MODULES = ("cli", "gammamod", "catalogio")  # what perfbench.run.execute takes


def absolute_redinv_imports(package: Path) -> list[str]:
    """``file:line`` of each import of ``redinv`` by absolute name in the
    modules of package."""
    out = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n == "redinv" or n.startswith("redinv.") for n in names):
                out.append(f"{path.relative_to(package)}:{node.lineno}")
    return out


def replay(workload: str, sides: list[tuple], rounds: int, max_ops) -> tuple:
    """(per-op best seconds of the parent, the same of the change, differing
    ops, first differing op's argv) of one workload; sides holds the
    parent's modules, then the change's."""
    from perfbench import workloads
    from perfbench.run import execute

    def run(op, modules):
        for name, text in op.files:
            Path(name).write_text(text, encoding="utf-8")
        try:
            t0 = time.perf_counter()
            result = execute(op, *modules)
            return time.perf_counter() - t0, result
        finally:
            for name, _ in op.files:
                os.remove(name)

    for modules in sides:
        run(workloads.WARMUP[workload], modules)
    ops = workloads.stream(workload, SEED, str(SRC / "redinv" / "data"))
    times, differ, first = ([], []), 0, None
    for op in itertools.islice(ops, max_ops):
        best, results = [float("inf")] * 2, [None, None]
        for r in range(rounds):
            for k in ((0, 1), (1, 0))[r % 2]:
                dt, result = run(op, sides[k])
                best[k] = min(best[k], dt)
                results[k] = results[k] or result
        for k in (0, 1):
            times[k].append(best[k])
        if results[0] != results[1]:
            differ += 1
            first = first or op.argv or f"bar module, degree {op.degree}"
    return times[0], times[1], differ, first


def ratio(change: float, parent: float) -> float:
    return change / parent if parent else float("nan")


def parse_args(argv=None) -> argparse.Namespace:
    """The options; each ``--workload`` adds to the list, which is every
    workload when none is given."""
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent-src", required=True,
                        help="the src directory of the parent checkout (it holds redinv/)")
    parser.add_argument("--rounds", type=int, default=3, help="runs of each op a side")
    # a list default would be extended in place, so every stream is filled in after parsing
    parser.add_argument("--workload", nargs="+", action="extend", default=None,
                        choices=sorted(workloads.STREAMS))
    parser.add_argument("--max-ops", type=int, default=None,
                        help="ops replayed a workload (default: all)")
    args = parser.parse_args(argv)
    if args.workload is None:
        args.workload = list(workloads.STREAMS)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if not (Path(args.parent_src) / "redinv" / "__init__.py").is_file():
        parser.error(f"no redinv package in {args.parent_src}")
    return args


def main(argv=None) -> int:
    from perfbench.run import harrell_davis

    args = parse_args(argv)
    parent = Path(args.parent_src) / "redinv"
    os.environ.pop("REDINV_CATALOG", None)  # both sides read their shipped catalog
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(parent, Path(tmp) / "pkg" / PARENT,
                        ignore=shutil.ignore_patterns("__pycache__"))
        bad = absolute_redinv_imports(Path(tmp) / "pkg" / PARENT)
        if bad:
            print(f"the parent's redinv imports redinv by absolute name at {', '.join(bad)}; "
                  "its copy would run this checkout's code", file=sys.stderr)
            return 2
        sys.path[:0] = [str(Path(tmp) / "pkg"), str(SRC)]
        change = tuple(importlib.import_module(f"redinv.{m}") for m in MODULES)
        if Path(change[0].__file__).resolve().parent != SRC / "redinv":
            print(f"redinv imported from {change[0].__file__}, not from {SRC}", file=sys.stderr)
            return 2
        sides = [tuple(importlib.import_module(f"{PARENT}.{m}") for m in MODULES), change]
        work = Path(tmp) / "work"
        work.mkdir()
        os.chdir(work)
        differing = 0
        for w in args.workload:
            parent_s, change_s, differ, first = replay(w, sides, args.rounds, args.max_ops)
            t_parent, t_change = sum(parent_s), sum(change_s)
            print(f"{w}: {len(parent_s)} ops, parent {t_parent:.4f} s, change {t_change:.4f} s, "
                  f"change/parent {ratio(t_change, t_parent):.3f}, {differ} differing outputs",
                  flush=True)
            if parent_s:
                p50, p90 = (ratio(harrell_davis(change_s, q), harrell_davis(parent_s, q))
                            for q in (0.5, 0.9))
                print(f"  {w} quantiles of per-op best times: p50 change/parent {p50:.3f}, "
                      f"p90 change/parent {p90:.3f}", flush=True)
            if differ:
                print(f"  first differing op: {first}", flush=True)
            differing += differ
        os.chdir(ROOT)
    return 1 if differing else 0


if __name__ == "__main__":
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    sys.exit(main())
