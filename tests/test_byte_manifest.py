"""The byte contract, checked by code: ``argv -> stdout`` bytes and exit code.

``byte_manifest.json`` maps each argv of a fast set that covers every command,
in JSON and (where a command has it) CSV form, to the sha256 of its stdout and
its exit code, and records the Python, numpy and scipy versions it was made
with.  Each argv runs through ``cli.main`` in this process with empty
extremal memos (answers and class tables), as it would in a fresh process.

A change that moves bytes on purpose regenerates the manifest with

    PYTHONPATH=src python3 tests/test_byte_manifest.py

from the root of a checkout.  It prints every argv whose ``[sha256, exit]``
differs from the manifest it replaces (new argv included); list those in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import pdextremal.cli as cli
from pdextremal import extremal

MANIFEST = Path(__file__).with_name("byte_manifest.json")
ROOT = Path(__file__).resolve().parents[1]

# Omega+ of three lp-large LPs; the Z_240 one takes the tightened re-solve
_Z180 = "[0, 1, 6, 35, 38, 41, 43, 45, 51, 59, 65, 67, 76, 77, 87, 93, 103, 104, 113, 115, " \
        "121, 129, 135, 137, 139, 142, 145, 174, 179]"
_Z240 = "[0, 1, 18, 21, 30, 31, 40, 52, 57, 58, 72, 76, 83, 85, 88, 101, 102, 106, 114, 126, " \
        "134, 138, 139, 152, 155, 157, 164, 168, 182, 183, 188, 200, 209, 210, 219, 222, 239]"
_Z256 = "[0, 3, 10, 11, 25, 27, 31, 37, 38, 46, 52, 58, 98, 101, 108, 109, 115, 116, 122, " \
        "123, 127, 129, 133, 134, 140, 141, 147, 148, 155, 158, 198, 204, 210, 218, 219, 225, " \
        "229, 231, 245, 246, 253]"


def _group(*orders: int, normalization: str = "probability") -> str:
    return json.dumps({"orders": list(orders), "normalization": normalization})


ARGVS = [
    ["constant", "--group", _group(6), "--omega-plus", "[5,0,1]", "--omega-minus", "empty",
     "--kind", "two-set"],
    ["constant", "--group", _group(12), "--omega-plus", "[-3,3]", "--kind", "turan"],
    ["constant", "--group", _group(4, 6, normalization="counting"), "--omega-plus",
     "[[0,0],[0,1],[0,5]]", "--kind", "delsarte"],
    ["constant", "--group", _group(10), "--omega-plus", "[1,9]", "--kind", "delsarte"],
    ["constant", "--group", _group(180), "--kind", "delsarte", "--omega-plus", _Z180],
    ["constant", "--group", _group(240), "--kind", "delsarte", "--omega-plus", _Z240],
    ["constant", "--group", _group(256), "--kind", "delsarte", "--omega-plus", _Z256],
    ["constant", "--group", '{"orders":[0]}', "--omega-plus", "[0]"],
    ["constant", "--group", _group(2, 3, 4), "--omega-plus", "[[0,0,0],[1,1,1],[1,2,3]]",
     "--kind", "delsarte"],
    *[["verify", suite, "--fuzz", "30", "--seed", "5"]
      for suite in ("main", "tile", "hom", "product", "auto", "density", "ineq")],
    ["verify", "main", "--fuzz", "-5"],
    *[["radial", table, "--d", "3", end, "8", "--step", "1", *csv]
      for table, end in (("yudin", "--t-max"), ("hankel", "--s-max"),
                         ("gorbachev-h", "--t-max"), ("ball-transform", "--t-max"))
      for csv in ([], ["--csv"])],
    *[["radial", table, "--d", d, end, "8", "--step", "1"]
      for d in ("1", "2")
      for table, end in (("hankel", "--s-max"), ("yudin", "--t-max"),
                         ("gorbachev-h", "--t-max"), ("ball-transform", "--t-max"))],
    *[["radial", table, "--d", "4", end, "8", "--step", "1"]  # order 1, which j1 serves
      for table, end in (("hankel", "--s-max"), ("yudin", "--t-max"))],
    ["radial", "yudin", "--d", "7", "--t-max", "300", "--step", "0.37"],  # floats like 1e-05
    ["radial", "ball-transform", "--d", "5", "--t-max", "0", "--step", "1"],  # one point
    ["radial", "hankel", "--d", "10"],  # exit 3
    # s * TAIL_START < 1: the geometric panels of the constant-term tail integral
    ["radial", "hankel", "--d", "2", "--s-max", "0.1", "--step", "0.01"],
    ["trinomial", "optimize"],
    ["trinomial", "example51"],
    ["trinomial", "example51", "--csv"],
    ["density", "search", "--forbidden", "[1,4]", "--max-period", "10"],
    ["density", "auud", "--period", "5", "--residues", "[0,2]"],
    ["density", "shadow", "--intervals", "[[-5,-3],[-2,2],[3,5]]"],
    [],
]


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def outcome(argv: list[str], memos=None) -> list:
    """[sha256 of stdout, exit code] of one argv, run with the given extremal
    memos (answers, class tables), by default empty ones."""
    saved = extremal._solved, extremal._built
    extremal._solved, extremal._built = memos or (extremal._Memo(), extremal._Memo())
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        extremal._solved, extremal._built = saved
    return [hashlib.sha256(out.getvalue().encode()).hexdigest(), code]


def test_outputs_match_the_manifest():
    manifest = json.loads(MANIFEST.read_text())
    expected = manifest["outputs"]
    assert sorted(expected) == sorted(shlex.join(a) for a in ARGVS)
    moved = [key for key in expected if outcome(shlex.split(key)) != expected[key]]
    problems = []
    if manifest["versions"] != versions():
        problems.append(f"manifest made with {manifest['versions']}, running {versions()}")
    if moved:
        problems.append(f"{len(moved)} of {len(expected)} argv moved:\n" + "\n".join(moved))
    assert not problems, "\n".join(problems)


# hom labels its classes off the identity; main and ineq take the identity labels, and
# ineq the packing witness too
@pytest.mark.parametrize("suite", ["hom", "auto", "main", "ineq"])
def test_warm_memos_give_the_manifest_bytes(suite):
    argv = ["verify", suite, "--fuzz", "30", "--seed", "5"]
    expected = json.loads(MANIFEST.read_text())["outputs"][shlex.join(argv)]
    answers, tables = extremal._Memo(), extremal._Memo()
    assert outcome(argv, (answers, tables)) == expected  # both memos empty
    assert answers.entries and tables.entries
    assert outcome(argv, (extremal._Memo(), tables)) == expected  # every LP from warm tables
    assert outcome(argv, (answers, tables)) == expected  # every LP from a warm answer


# Delsarte's LP on Z_512 with Omega+ = {0, 7, -7}: its answer passes the
# certificate only from the primal simplex that solve runs after the
# tightened re-solve
Z512_ARGV = ["constant", "--group", _group(512), "--omega-plus", "[0,7,505]",
             "--kind", "delsarte"]


def test_argv_after_a_primal_simplex_rescue_give_the_manifest_bytes(monkeypatch, capsys):
    expected = json.loads(MANIFEST.read_text())["outputs"]
    monkeypatch.setattr(extremal, "_solved", extremal._Memo())
    monkeypatch.setattr(extremal, "_built", extremal._Memo())
    assert cli.main(Z512_ARGV) == 0
    assert abs(json.loads(capsys.readouterr().out)["result"]["value"] - 2 / 512) <= 1e-12
    after = [a for a in ARGVS if a[:1] in (["constant"], ["verify"])]
    assert len(after) == 17
    assert [outcome(a) for a in after] == [expected[shlex.join(a)] for a in after]


def test_in_process_bytes_are_the_command_line_bytes():
    argv = ARGVS[1]
    run = subprocess.run([sys.executable, "-m", "pdextremal.cli", *argv], capture_output=True,
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=False)
    assert [hashlib.sha256(run.stdout).hexdigest(), run.returncode] == outcome(argv)


if __name__ == "__main__":
    before = json.loads(MANIFEST.read_text())["outputs"] if MANIFEST.exists() else {}
    outputs = {shlex.join(a): outcome(a) for a in ARGVS}
    for key, value in outputs.items():
        if before.get(key) != value:
            print(f"{key}: {before.get(key)} -> {value}")
    MANIFEST.write_text(json.dumps({"versions": versions(), "outputs": outputs}, indent=1) + "\n")
