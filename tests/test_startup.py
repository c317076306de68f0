"""What a fresh ``redinv`` process imports, and what it prints.

Each command imports the layers it runs: ``tres`` (which brings in
``homcx``) for ``pi1d`` and ``check-ses``, ``cech`` for ``cech``, and
``hashlib`` where a digest is taken.  These tests start new interpreters
with ``src/`` on the path, so the imports that the commands defer run from
a cold start.  ``-X importtime`` lists on stderr every module a command
imports and leaves its stdout and exit code as they are.
"""

import json
import os
import subprocess
import sys

import pytest

from redinv.catalogio import default_catalog_path
from redinv.cli import main

from test_cli import CECH_OK

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA_DIR = os.path.dirname(default_catalog_path())
DEFERRED = ("redinv.tres", "redinv.homcx", "redinv.cech")
# never imported by redinv: the value classes need no dataclasses, nor its inspect
NEVER = {"dataclasses", "inspect"}


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "REDINV_CATALOG")}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=60)


@pytest.fixture(scope="module")
def bare_modules() -> set:
    """The modules a bare interpreter holds: site hooks differ by machine."""
    return set(fresh("-c", "import sys; print(*sys.modules)").stdout.decode().split())


def test_import_and_catalog_load_skip_the_deferred_layers(bare_modules):
    proc = fresh("-c", "import sys, redinv.cli\n"
                       "from redinv.catalogio import load_catalog\n"
                       "load_catalog()\n"
                       "print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr.decode()
    loaded = set(proc.stdout.decode().split())
    assert "redinv.catalogio" in loaded
    assert not loaded & set(DEFERRED)
    assert not (loaded - bare_modules) & ({"hashlib"} | NEVER)


def imported(stderr: bytes) -> set:
    """The module names of the ``-X importtime`` lines of stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.decode().splitlines()
            if line.startswith("import time:")}


# argv, with {dir} the shipped data directory and {tmp} a scratch one, and
# the deferred modules (and hashlib) that the command loads
CASES = {
    "invariants-human": (["invariants", "PGL(3)"], set()),
    "invariants": (["invariants", "PGL(3)", "--format", "json"], {"hashlib"}),
    "pi1d": (["pi1d", "GL(2)", "--resolution", "pushout", "--format", "json"],
             {"redinv.tres", "redinv.homcx", "hashlib"}),
    "check-ses": (["check-ses", "{dir}/ses_gm_gl3_pgl3.json", "--format", "json"],
                  {"redinv.tres", "redinv.homcx", "hashlib"}),
    "cech": (["cech", "{tmp}/cech.json", "--format", "json"], {"redinv.cech", "hashlib"}),
    "matrix": (["matrix", "snf", "{tmp}/m.json", "--format", "json"], {"hashlib"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_process_matches_in_process(case, bare_modules, tmp_path, capsysbinary,
                                          monkeypatch):
    (tmp_path / "cech.json").write_text(json.dumps(CECH_OK), encoding="utf-8")
    (tmp_path / "m.json").write_text(
        json.dumps([["2", "4", "4"], ["-6", "6", "12"], ["10", "-4", "-16"]]), encoding="utf-8")
    template, loads = CASES[case]
    argv = [a.format(dir=DATA_DIR, tmp=tmp_path) for a in template]
    proc = fresh("-X", "importtime", "-m", "redinv.cli", *argv)
    monkeypatch.delenv("REDINV_CATALOG", raising=False)
    code = main(argv)
    assert (proc.returncode, proc.stdout) == (code, capsysbinary.readouterr().out)
    watched = set(DEFERRED) | ({"hashlib"} - bare_modules)
    assert imported(proc.stderr) & watched == loads & watched
    assert not imported(proc.stderr) & (NEVER - bare_modules)
