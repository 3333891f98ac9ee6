"""Golden regression test for `cuspidal-kit plan` on the built-in fixtures.

Each snapshot under tests/golden/ holds the exit code and the stdout JSON of
one plan run (3r-canonical, --ik-seeds 6, default or --nonsingular). Structure
(keys, counts, flags, layer lists, cycles) must match exactly; floats match to
1e-9 relative. Regenerate the snapshots, only at a commit whose output is the
reference, with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from cuspidal_kit.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ["3r-infeasible-line", "3r-infeasible-line-control", "3r-cusp-loop",
            "3r-control-loop"]
CASES = [(f, mode) for f in FIXTURES for mode in ("default", "nonsingular")]


def _argv(fixture: str, mode: str) -> list[str]:
    argv = ["plan", "--robot", "3r-canonical", "--path", fixture, "--ik-seeds", "6"]
    return argv + (["--nonsingular"] if mode == "nonsingular" else [])


def _snapshot(fixture: str, mode: str) -> Path:
    return GOLDEN / f"plan_{fixture}_{mode}.json"


def _assert_matches(got, want, where="$"):
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), f"{where}: {got!r} is not a number"
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), \
            f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), \
            f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("fixture,mode", CASES)
def test_plan_matches_snapshot(capsys, fixture, mode):
    code = main(_argv(fixture, mode))
    doc = json.loads(capsys.readouterr().out)
    want = json.loads(_snapshot(fixture, mode).read_text())
    assert code == want["exit"]
    _assert_matches(doc, want["stdout"])


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for fixture, mode in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(_argv(fixture, mode))
        snap = {"argv": _argv(fixture, mode), "exit": code, "stdout": json.loads(buf.getvalue())}
        _snapshot(fixture, mode).write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
        print(f"{_snapshot(fixture, mode).name}: exit {code}", file=sys.stderr)
