"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import itertools
import json
import sys

import pytest

from perfbench import oracles, run, workloads
from perfbench.tracing import LAYERS

sys.path.insert(0, str(run.SRC))
from redinv import catalogio, cli, gammamod  # noqa: E402

DATA = str(run.DATA)


def first_ops(workload, seed, n):
    return list(itertools.islice(workloads.stream(workload, seed, DATA), n))


def execute(op, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in op.files:
        (tmp_path / name).write_text(text, encoding="utf-8")
    return run.execute(op, cli, gammamod, catalogio)


def find(ops, kind):
    return next(op for op in ops if op.expect[0] == kind)


# --- every oracle accepts the real output and rejects a corrupted one ----------

def _torsion_plus_one(rec, *path):
    node = rec
    for key in path:
        node = node[key]
    node["rank"] += 1


def _flip_verdict(rec):
    key = sorted(rec["verdicts"])[0]
    rec["verdicts"][key] = False


def _bump(rows, i, j):
    rows[i][j] = str(int(rows[i][j]) + 1)


CORRUPTIONS = [
    ("cli_mix", "invariants", lambda r: _torsion_plus_one(r, "outputs", "pi1")),
    ("cli_mix", "invariants", _flip_verdict),
    ("cli_mix", "pi1d", lambda r: _torsion_plus_one(r, "outputs", "H0")),
    ("cli_mix", "pi1d", _flip_verdict),
    ("cli_mix", "ses", lambda r: _torsion_plus_one(r["outputs"]["sequence"][0], "group")),
    ("cli_mix", "cech", lambda r: _torsion_plus_one(r, "outputs", "cohomology", "2")),
    ("bar_cohomology", "bar", lambda r: _torsion_plus_one(r, "group")),
    ("dense_normal_forms", "snf", lambda r: _bump(r["outputs"]["U"], 0, 0)),
    ("dense_normal_forms", "snf", lambda r: _bump(r["outputs"]["D"], 0, 1)),
    ("dense_normal_forms", "hnf", lambda r: _bump(r["outputs"]["H"], 1, 0)),
    ("dense_normal_forms", "hnf", lambda r: _bump(r["outputs"]["U"], 2, 3)),
]


@pytest.mark.parametrize("workload,kind,corrupt", CORRUPTIONS)
def test_oracle_rejects_corrupted_output(workload, kind, corrupt, tmp_path, monkeypatch):
    op = find(first_ops(workload, 3, 60), kind)
    code, out, error = execute(op, tmp_path, monkeypatch)
    assert oracles.judge(op, code, out, error) == (None, False)
    rec = json.loads(out)
    bad = copy.deepcopy(rec)
    corrupt(bad)
    reason, wrong = oracles.judge(op, code, json.dumps(bad), error)
    assert reason is not None and wrong


def test_rank_sweep_and_malformed_ops_are_judged(tmp_path, monkeypatch):
    op = first_ops("rank_sweep", 3, 1)[0]
    assert oracles.judge(op, *execute(op, tmp_path, monkeypatch)) == (None, False)
    bad = find(first_ops("cli_mix", 3, 200), "reject")
    assert oracles.judge(bad, 0, '{"outputs": {}}', None)[1]  # an answer to bad input
    assert oracles.judge(bad, 2, "", None) == (None, False)


def test_known_defect_fails_the_op_without_a_wrong_answer(tmp_path, monkeypatch):
    # A malformed twisted spec raises InvalidDatum past the CLI, where exit 2
    # is expected: a known defect of redinv, counted as a failed op.
    op = workloads.Op(("invariants", "SO(7)xGamma:flip"), expect=("reject",))
    code, out, error = execute(op, tmp_path, monkeypatch)
    assert error.startswith("InvalidDatum: ")
    reason, wrong = oracles.judge(op, code, out, error)
    assert reason.startswith("uncaught InvalidDatum") and not wrong


DIGIT_LIMIT = ("ValueError: Exceeds the limit (4300 digits) for integer string conversion; "
               "use sys.set_int_max_str_digits() to increase the limit")


@pytest.mark.parametrize("kind,error,wrong", [
    ("reject", "InvalidDatum: unknown twist", False),
    ("snf", DIGIT_LIMIT, False),
    ("reject", "KeyError: 'flip'", True),
    ("pi1d", "InvalidDatum: unknown twist", True),
    ("hnf", DIGIT_LIMIT, True),
    ("bar", "ZeroDivisionError: division by zero", True),
])
def test_only_known_defects_are_not_wrong_answers(kind, error, wrong):
    op = workloads.Op(("x",), expect=(kind,))
    reason, is_wrong = oracles.judge(op, None, "", error)
    assert reason == f"uncaught {error}" and is_wrong == wrong


def test_snf_oracle_reads_entries_past_the_digit_limit():
    # U M V = D for M = D = I, U = [[1, K], [0, 1]], V = [[1, -K], [0, 1]],
    # with K = 10^5000: more digits than int() accepts by default.
    k = "1" + "0" * 5000
    op = workloads.Op(("matrix", "snf", "m.json"), expect=("snf", [[1, 0], [0, 1]]))
    rec = {"outputs": {"U": [["1", k], ["0", "1"]], "D": [["1", "0"], ["0", "1"]],
                       "V": [["1", "-" + k], ["0", "1"]]}}
    assert oracles.judge(op, 0, json.dumps(rec), None) == (None, False)
    rec["outputs"]["V"][0][1] = k
    assert oracles.judge(op, 0, json.dumps(rec), None)[1]


def test_hnf_oracle_needs_unimodular_transform():
    m = [[2, 1], [0, 3]]
    h = [[2, 1], [0, 3]]
    op = workloads.Op(("matrix", "hnf", "m.json"), expect=("hnf", m))
    good = {"outputs": {"H": h, "U": [[1, 0], [0, 1]]}}
    assert oracles.judge(op, 0, json.dumps(good), None) == (None, False)
    # U = 2 I gives H = 2 M: echelon and reduced, but U is not unimodular.
    bad = {"outputs": {"H": [[4, 2], [0, 6]], "U": [[2, 0], [0, 2]]}}
    assert oracles.judge(op, 0, json.dumps(bad), None)[1]


def test_bareiss_determinant():
    assert oracles.det([[0, 2], [3, 4]]) == -6
    assert oracles.det([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 0
    assert oracles.det([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4


# --- streams --------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_deterministic_and_repeat_free(workload):
    a, b = first_ops(workload, 7, 150), first_ops(workload, 7, 150)
    assert a == b
    assert first_ops(workload, 8, 150) != a
    keys = [(op.argv[:2] if op.expect[0] in ("snf", "hnf") else op.argv, op.module, op.degree,
             op.files) for op in a]
    assert len(set(keys)) == len(keys)


def test_cli_mix_covers_catalog_and_malformed_share():
    ops = list(workloads.stream("cli_mix", 5, DATA))
    catalog = {s for s, _ in workloads.load_catalog_expectations(f"{DATA}/catalog.json")}
    for cmd in ("invariants", "canonical", "pushout"):
        seen = {op.argv[1] for op in ops if op.expect[0] in ("invariants", "pi1d")
                and (op.argv[0] == cmd or cmd in op.argv)}
        assert catalog <= seen
    rejects = [op for op in ops if op.expect[0] == "reject"]
    assert len(rejects) / len(ops) == pytest.approx(0.05, abs=0.01)
    assert sum("xGamma:flip" in op.argv[1] for op in rejects) >= 3


def test_generated_ses_fixtures_match_the_shipped_ones():
    for family in ("gm", "sl"):
        for n in range(2, 7):
            name, text, _ = workloads.ses_fixture(family, n, DATA)
            _, generated, _ = workloads.ses_fixture(family, n, "/nonexistent")
            assert json.loads(generated) == json.loads(text), name


# --- whole runs at tiny size ----------------------------------------------------

TINY = {"cli_mix": 40, "rank_sweep": 2, "bar_cohomology": 30, "dense_normal_forms": 4}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_records(workload, tmp_path):
    shas = []
    for _ in range(2):
        _, lines = run.run_child(workload, 11, 60, TINY[workload], False, tmp_path,
                                 run.time.monotonic() + 120)
        assert len(lines) == TINY[workload]
        checked = run.judge_all(workload, 11, lines)
        assert checked["wrong"] == 0
        shas.append(checked["sha"])
    assert shas[0] == shas[1]
    lines[-1]["out"] += " "  # the hash covers the last record too
    assert run.judge_all(workload, 11, lines)["sha"] != shas[0]


def test_op_metrics_count_only_passed_ops():
    # Probes equal to REF_S leave the times unscaled; op 2 failed.
    lines = [{"t0": i, "dt": dt, "probe": [run.REF_S, run.REF_S]}
             for i, dt in enumerate((0.01, 0.02, 5.0))]
    scaled, raw = run.op_metrics(lines, [(2, None, "uncaught")])
    assert scaled == pytest.approx(raw)
    assert raw["ops_per_s"] == pytest.approx(2 / 0.03)
    assert raw["latency_p90_ms"] == pytest.approx(1000 * run.harrell_davis([0.01, 0.02], 0.9))
    assert 10 < raw["latency_p50_ms"] < raw["latency_p90_ms"] < 20


def test_harrell_davis_quantiles():
    assert run.harrell_davis([3.0] * 40, 0.9) == pytest.approx(3.0)
    # On 1..n the weights average the ranks to n q + 1/2.
    ranks = list(range(1, 102))
    assert run.harrell_davis(ranks, 0.5) == pytest.approx(51)
    assert run.harrell_davis(ranks, 0.9) == pytest.approx(91.4)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_ratio"}
    seen = set()
    for workload, n in TINY.items():
        info, lines = run.run_child(workload, 11, 60, n, True, tmp_path,
                                    run.time.monotonic() + 120)
        assert run.judge_all(workload, 11, lines)["wrong"] == 0
        seen |= {k for k, v in info["layers"].items() if v}
    assert wanted - seen == set()
    assert {f"{layer}.self_s" for layer in LAYERS} <= seen


def test_per_layer_metrics_have_targets():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    targets = json.loads((run.ROOT / "perfbench" / "targets.json").read_text())["per_layer"]
    assert [m["name"] for m in spec["per_layer"]] == list(targets)
