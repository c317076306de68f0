"""The A/B replay ``tests/ab_replay.py`` finds no differing output when it
replays this checkout against itself and prints the Harrell-Davis p50 and
p90 ratios beside each sum, its scan finds the absolute imports of
``redinv`` that would make a parent's copy run this checkout, and
``--workload`` given twice replays both lists."""

import re
import subprocess
import sys
from pathlib import Path

from ab_replay import absolute_redinv_imports, parse_args

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # for perfbench.workloads
    sys.path.insert(0, str(ROOT))


def test_replay_against_itself_differs_nowhere():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "ab_replay.py"), "--parent-src", str(ROOT / "src"),
         "--rounds", "1", "--max-ops", "5", "--workload", "cli_mix", "bar_cohomology"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    sums, quantiles = lines[0::2], lines[1::2]
    assert [line.split(":")[0] for line in sums] == ["cli_mix", "bar_cohomology"]
    assert all(": 5 ops," in line and line.endswith(", 0 differing outputs") for line in sums)
    # each workload's sum line is followed by its Harrell-Davis quantile ratios
    pattern = (r"  (\w+) quantiles of per-op best times: "
               r"p50 change/parent (\d+\.\d{3}), p90 change/parent (\d+\.\d{3})")
    matches = [re.fullmatch(pattern, line) for line in quantiles]
    assert all(matches), quantiles
    assert [m[1] for m in matches] == ["cli_mix", "bar_cohomology"]
    assert all(float(ratio) > 0 for m in matches for ratio in m.groups()[1:])


def test_scan_flags_absolute_redinv_imports(tmp_path):
    (tmp_path / "a.py").write_text("from . import b\nimport redinv.intmat\n")
    (tmp_path / "b.py").write_text("from redinv import cli\nimport redinvx\nfrom .redinv import c\n")
    assert absolute_redinv_imports(tmp_path) == ["a.py:2", "b.py:1"]


def test_workload_lists_extend_and_default_to_every_stream():
    from perfbench import workloads

    parent = ["--parent-src", str(ROOT / "src")]
    both = ["bar_cohomology", "cli_mix"]
    for spelling in (["--workload", *both], ["--workload", both[0], "--workload", both[1]]):
        assert parse_args(parent + spelling).workload == both
    # after the lists above, so a default extended in place would show here
    assert parse_args(parent).workload == list(workloads.STREAMS)
