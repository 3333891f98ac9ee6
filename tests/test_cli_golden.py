"""Golden regression test for the CLI.

Each snapshot under tests/golden/ holds the argv, the exit code and the stdout
of one run: `plan` on the built-in path fixtures (3r-canonical, --ik-seeds 6,
default or --nonsingular), `identify` on the 6R arm (its LM path),
`optimize` on a 30-sample helix (its re-pricing) and a small `map` grid.
JSON structure (keys, counts, flags, layer lists, cycles) must match
exactly and floats to 1e-9 relative; non-JSON stdout (the `map` CSV) must
match as text. Regenerate the snapshots, only at a commit whose output is
the reference, with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from cuspidal_kit import fileio
from cuspidal_kit.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ["3r-infeasible-line", "3r-infeasible-line-control", "3r-cusp-loop",
            "3r-control-loop"]
CASES = [(f, mode) for f in FIXTURES for mode in ("default", "nonsingular")]
# "{helix}" stands for a 30-sample helix toolpath file written at run time
COMMANDS = {
    "identify_3parallel-cuspidal": ["identify", "--robot", "3parallel-cuspidal",
                                    "--max-poses", "1", "--ik-seeds", "5"],
    "optimize_helix": ["optimize", "--robot", "3r-canonical", "--toolpath", "{helix}",
                       "--starts", "1", "--max-evals", "20", "--ik-seeds", "6"],
    "map_3r-canonical": ["map", "--robot", "3r-canonical", "--rho-range", "0", "5",
                         "--z-range", "-3", "3", "--grid", "8", "6", "--ik-seeds", "6"],
}


def _plan_argv(fixture: str, mode: str) -> list[str]:
    argv = ["plan", "--robot", "3r-canonical", "--path", fixture, "--ik-seeds", "6"]
    return argv + (["--nonsingular"] if mode == "nonsingular" else [])


COMMANDS.update({f"plan_{f}_{m}": _plan_argv(f, m) for f, m in CASES})


def _run(name: str, workdir) -> dict:
    argv = COMMANDS[name]
    if "{helix}" in argv:
        helix = Path(workdir) / "helix.json"
        fileio.save_json(fileio.generate_helix(samples=30), helix)
        argv = [str(helix) if a == "{helix}" else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    try:
        stdout = json.loads(buf.getvalue())
    except json.JSONDecodeError:
        stdout = buf.getvalue()
    return {"argv": COMMANDS[name], "exit": code, "stdout": stdout}


def _snapshot(name: str) -> Path:
    return GOLDEN / f"{name}.json"


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


def _check(name: str, workdir):
    got = _run(name, workdir)
    want = json.loads(_snapshot(name).read_text())
    assert got["exit"] == want["exit"]
    _assert_matches(got["stdout"], want["stdout"])


@pytest.mark.parametrize("fixture,mode", CASES)
def test_plan_matches_snapshot(tmp_path, fixture, mode):
    _check(f"plan_{fixture}_{mode}", tmp_path)


@pytest.mark.parametrize("name", [n for n in COMMANDS if not n.startswith("plan_")])
def test_command_matches_snapshot(tmp_path, name):
    _check(name, tmp_path)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in COMMANDS:
            snap = _run(name, workdir)
            _snapshot(name).write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
            print(f"{_snapshot(name).name}: exit {snap['exit']}", file=sys.stderr)
