"""redinv benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs as a closed loop (one client, no threads) in a fresh
subprocess that imports redinv from ``src/``.  Its seeded op stream is
finite; the loop ends with the stream or after ``--seconds``.  Every op's
record goes to a file; this process then checks each record against an
independent oracle (``oracles.py``), outside the timed region.  Times are
scaled to a reference machine speed (see ``probe``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the loop untraced for
half of ``--seconds``, then the same ops traced in another subprocess, and
reports the per-layer metrics listed in ``BENCHMARK.json``.
``--workload all`` runs the four workloads one after another.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op fails when it raises,
exits with the wrong code or prints a record its oracle rejects.  Every
failure but a documented known defect (``oracles.known_defect``) is a
wrong answer, which makes the run incorrect and the exit code 1.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import oracles, workloads  # noqa: E402

SRC = ROOT / "src"
DATA = SRC / "redinv" / "data"
SETUP_SPAWNS = 9  # setup_s is the median of this many fresh interpreters
BUDGET_S = 165  # the whole command stays under this wall time
# Op and set-up times are scaled to a machine on which probe() takes
# REF_S.  The host running a small VM runs at different speeds from one
# second to the next (a fixed pure-Python loop varies by 1.5x), so each op
# time is divided by the median probe time measured within PROBE_WINDOW_S
# of it, and each set-up time by a probe run in the same interpreter, then
# multiplied by REF_S.  The raw times are printed alongside.  The probe
# allocates no containers and runs with the collector off, so gc settings
# and heap growth of the code under test do not slow it.
REF_S = 0.001
PROBE_WINDOW_S = 0.5
# The spawned interpreter reports the monotonic clock (shared by all
# processes) once the catalog is loaded, so process teardown and the
# parent's wait are not timed; it then reports its own median probe time,
# which scales its set-up time.
SETUP_CODE = """\
import time
import redinv.cli
from redinv.catalogio import load_catalog
load_catalog()
done = time.perf_counter()
import sys
sys.path.insert(0, {root!r})
from perfbench.run import probe
print(done, sorted(probe() for _ in range(3))[1])
"""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("REDINV_CATALOG", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


# --- machine-speed probe ------------------------------------------------------------

_PROBE_ROWS = tuple(tuple((i * 7919 + j * 104729) % 97 - 48 for j in range(24))
                    for i in range(24))
_PROBE_TABLE = {str(i): i * i for i in range(200)}
_PROBE_KEYS = tuple(_PROBE_TABLE)


def _probe_work() -> int:
    total = 0
    for _ in range(3):
        for row in _PROBE_ROWS:
            acc = 0
            for x in row:
                acc = (acc * 31 + x) % 1000003
            total += acc
        for key in _PROBE_KEYS:
            total += _PROBE_TABLE[key]
    return total


def probe() -> float:
    """Seconds taken by a fixed pure-Python snippet on preallocated data,
    about REF_S on a fast core; it touches nothing of redinv.  The first,
    untimed pass lets the interpreter specialise the snippet."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe_work()
        t0 = time.perf_counter()
        for _ in range(4):
            _probe_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(spans: list) -> list:
    """Each (start, duration, probe before, probe after) span's duration
    scaled to REF_S by the median probe near it."""
    samples = sorted([(s, b) for s, _, b, _ in spans] + [(s + d, a) for s, d, _, a in spans])
    times = [t for t, _ in samples]
    out = []
    for start, dur, _, _ in spans:
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + dur + PROBE_WINDOW_S)
        out.append(dur * REF_S / statistics.median(p for _, p in samples[lo:hi]))
    return out


# --- child: run ops in-process -------------------------------------------------

def execute(op, cli, gammamod, catalogio) -> tuple:
    """(exit code, stdout, uncaught error) of one op."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if op.argv:
                code = cli.main(list(op.argv) + ["--format", "json"])
            else:
                module = gammamod.GammaModule.from_json(json.loads(op.module))
                group = gammamod.group_cohomology(module, op.degree)
                record = {"degree": op.degree, "group": catalogio.invariants_json(group)}
                sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
                code = 0
        except SystemExit as exc:  # argparse exits 2 on bad arguments
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # the op's failure is the measurement
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
    return code, out.getvalue(), error


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    from redinv import catalogio, cli, gammamod
    from perfbench.tracing import Tracer

    if Path(cli.__file__).resolve().parent != SRC / "redinv":
        print(f"redinv imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    warm = workloads.WARMUP[args.child]
    for name, text in warm.files:
        Path(name).write_text(text, encoding="utf-8")
    execute(warm, cli, gammamod, catalogio)
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    ops = workloads.stream(args.child, args.seed, str(DATA))
    n = 0
    start = time.perf_counter()
    with open(args.records, "w", encoding="utf-8") as rec:
        for op in ops:
            if n >= args.max_ops or time.perf_counter() - start >= args.seconds:
                break
            for name, text in op.files:
                Path(name).write_text(text, encoding="utf-8")
            if tracer is not None:
                tracer.start_op(n)
            before = probe()
            t0 = time.perf_counter()
            code, out, error = execute(op, cli, gammamod, catalogio)
            dt = time.perf_counter() - t0
            after = probe()
            rec.write(json.dumps({"exit": code, "error": error, "t0": t0 - start, "dt": dt,
                                  "probe": [before, after], "out": out}) + "\n")
            for name, _ in op.files:
                os.remove(name)
            n += 1
    result = {"ops": n, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.metrics(n)
    print(json.dumps(result))
    return 0


# --- parent: spawn, check, report ------------------------------------------------

class BenchError(RuntimeError):
    pass


def measure_setup(deadline: float) -> tuple[float, float]:
    """Median time, scaled and raw, of fresh interpreters importing the CLI
    and loading the shipped catalog, after one unmeasured spawn."""
    code = SETUP_CODE.format(root=str(ROOT))
    scaled_times, raw_times = [], []
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              check=True, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        done, probe_s = map(float, proc.stdout.split())
        if i:
            raw_times.append(done - t0)
            scaled_times.append((done - t0) * REF_S / probe_s)
    return statistics.median(scaled_times), statistics.median(raw_times)


def run_child(workload, seed, seconds, max_ops, traced, workdir, deadline) -> tuple[dict, list]:
    records = workdir / f"records-{int(traced)}.jsonl"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--max-ops", str(max_ops),
           "--traced", str(int(traced)), "--records", str(records)]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: workload process exceeded the time budget") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload}: workload process exited {proc.returncode}")
    with open(records, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    os.remove(records)
    return json.loads(proc.stdout.strip().splitlines()[-1]), lines


def judge_all(workload, seed, lines) -> dict:
    """Check every record against its oracle and hash all of them."""
    digest = hashlib.sha256()
    failures, wrong = [], 0
    for i, (op, line) in enumerate(zip(workloads.stream(workload, seed, str(DATA)), lines)):
        reason, is_wrong = oracles.judge(op, line["exit"], line["out"], line["error"])
        if reason is not None:
            failures.append((i, op, reason))
            wrong += is_wrong
        digest.update(f"{line['exit']} {line['error'] is not None}\n{line['out']}".encode())
    return {"failures": failures, "wrong": wrong, "sha": digest.hexdigest()}


def _describe(op) -> str:
    return " ".join(op.argv) if op.argv else f"bar {op.expect[1]}"


def report_failures(workload, checked) -> None:
    for i, op, reason in checked["failures"][:12]:
        print(f"  {workload} op {i} [{_describe(op)}]: {reason}", file=sys.stderr)
    if checked["wrong"]:
        print(f"WRONG ANSWERS: {checked['wrong']} {workload} op(s) above failed outside the "
              "known defects", file=sys.stderr)


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q (n+1), (1-q) (n+1)) density.

    Op times mix op kinds of very different cost, so a single order
    statistic often sits where the distribution is steep, and moves with
    the seed.  The weighted mean estimates the same quantile with a third
    to a half of the run-to-run spread.  The weights are integrated by the
    midpoint rule, 64 points per order statistic.
    """
    v = sorted(values)
    n = len(v)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64 * n
    weights = [0.0] * n
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) / steps
    return sum(w * x for w, x in zip(weights, v))


def op_metrics(lines: list, failures: list) -> tuple[dict, dict]:
    """End-to-end op metrics over the passed ops, from scaled times and from
    raw times.  Every op's probes still take part in the scaling."""
    failed = {i for i, _, _ in failures}

    def summary(times):
        times = [t for i, t in enumerate(times) if i not in failed]
        if not times:
            raise BenchError("no op passed")
        return {"ops_per_s": len(times) / sum(times),
                "latency_p50_ms": 1000 * harrell_davis(times, 0.5),
                "latency_p90_ms": 1000 * harrell_davis(times, 0.9)}
    return summary(scaled(_spans(lines))), summary([x["dt"] for x in lines])


def _spans(lines: list) -> list:
    return [(x["t0"], x["dt"], *x["probe"]) for x in lines]


def run_workload(workload, seed, seconds, trace, deadline, spec) -> dict:
    """Run one workload; with ``trace``, run its ops again traced."""
    workdir = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info, lines = run_child(workload, seed, seconds / 2 if trace else seconds, sys.maxsize,
                                False, workdir, deadline)
        if trace:
            traced, tlines = run_child(workload, seed, BUDGET_S, len(lines), True, workdir,
                                       deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace and [(x["exit"], x["out"]) for x in tlines] != [(x["exit"], x["out"]) for x in lines]:
        raise BenchError(f"{workload}: the traced run printed different records")
    checked = judge_all(workload, seed, lines)
    failed = len(checked["failures"])
    report_failures(workload, checked)
    top_self = []
    if trace:
        layers = traced["layers"]
        layers["trace.overhead_ratio"] = sum(scaled(_spans(tlines))) / sum(scaled(_spans(lines)))
        metrics, raw = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}, {}
        top_self = sorted(((v, k[:-7]) for k, v in layers.items()
                           if k.endswith(".self_s") and k.count(".") >= 2), reverse=True)[:6]
    else:
        metrics, raw = op_metrics(lines, checked["failures"])
        metrics["peak_rss_mb"] = info["rss_kb"] / 1024
    return {"workload": workload, "attempted": len(lines), "failed": failed,
            "wrong": checked["wrong"], "sha": checked["sha"],
            "metrics": metrics, "raw": raw, "top_self": top_self}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    p.add_argument("--max-ops", type=int, default=sys.maxsize, help=argparse.SUPPRESS)
    p.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--records", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        return child(args)

    if not (SRC / "redinv" / "cli.py").is_file() or not (DATA / "catalog.json").is_file():
        print(f"redinv sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        setup = None if args.trace else measure_setup(deadline)
        results = [run_workload(w, args.seed, args.seconds, args.trace, deadline, spec)
                   for w in names]
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for r in results:
        if setup is not None:
            r["metrics"]["setup_s"], r["raw"]["setup_s"] = setup
        print(f"# {r['workload']} seed {args.seed}: {r['attempted']} ops, {r['failed']} failed "
              f"(failed_ratio {r['failed'] / max(1, r['attempted']):.4f}, {r['wrong']} wrong "
              f"answers); records_sha256: {r['sha']}")
        for name, value in r["metrics"].items():
            raw = f"  (raw {r['raw'][name]:.6g})" if name in r["raw"] else ""
            print(f"#   {name:44s} {value:14.6g} {units.get(name, ''):12s}{raw}")
        for value, name in r["top_self"]:
            print(f"#   top self time: {name:36s} {value:10.4f} s")
    correct = not any(r["wrong"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
