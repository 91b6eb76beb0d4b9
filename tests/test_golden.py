"""The golden CLI corpus: fixed documents and argv, with the exact stdout and
exit code the CLI gave for each.

``golden/cases.json`` lists the calls; an argv entry under ``inputs/`` names a
committed document.  Every case is replayed through in-process ``main`` and
must print the recorded bytes and return the recorded code.  The corpus
covers the benchmark's ``cli-documents`` cycle, a text-mode call per
subcommand and the error exits 2 to 5.

The expected files change only with a deliberate output change.  To rewrite
them, run ``PYTHONPATH=src python tests/test_golden.py`` from the repository
root, and name every rewritten case and its change in ``CHANGES.md``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from amnm.cli import main
from test_sampling import _baseline_dispatch

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def replay(case) -> tuple[int, bytes]:
    argv = [str(GOLDEN / a) if a.startswith("inputs/") else a for a in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


def expected_path(case) -> Path:
    return GOLDEN / "expected" / f"{case['name']}.out"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_cli_output(case):
    code, out = replay(case)
    assert code == case["code"]
    assert out == expected_path(case).read_bytes()


def test_golden_corpus_under_the_baseline_simd_dispatch():
    """Every case, replayed in one fresh process under numpy's baseline SIMD
    dispatch, prints the recorded bytes, those whose ``--corroborate`` runs the
    polished M2 oracle included: its simplex orders tied vertex values stably."""
    here = Path(__file__).parent
    path = [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _baseline_dispatch()}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    code = (
        "from test_golden import CASES, expected_path, replay\n"
        "for case in CASES:\n"
        "    if replay(case) != (case['code'], expected_path(case).read_bytes()):\n"
        "        print(case['name'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []


def write_round_trip_input():
    """The document the benchmark's exact round trip feeds back to ``defect``:
    the printed t2-chain family (length 8, index 3) on its own weighted chain."""
    (case,) = [c for c in CASES if c["name"] == "t2-chain-round-trip"]
    code, out = replay(case)
    assert code == 0
    doc = {
        "table": [[min(a, b) for b in range(8)] for a in range(8)],
        "weights": [2 ** (k + 1) for k in range(8)],
        "map": json.loads(out)["reports"][0]["theta"],
    }
    (GOLDEN / "inputs" / "round-trip.json").write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    write_round_trip_input()
    for case in CASES:
        code, out = replay(case)
        if code != case["code"]:
            sys.exit(f"{case['name']}: exit code {code}, cases.json says {case['code']}")
        expected_path(case).write_bytes(out)
