"""Golden regression test for the CLI.

Each snapshot under tests/golden/ holds the argv, the exit code and the stdout
of one run: `plan` on the built-in path fixtures (3r-canonical, --ik-seeds 6,
default or --nonsingular), `identify` on the 6R arm (its closed-form IK),
`optimize` on a 30-sample helix (its re-pricing), a small `map` grid, and
`plan` on the cusp loop with three sets of declared joint limits (edge
drops, a multi-turn start shift, an infeasible multi-turn pair).
JSON structure (keys, counts, flags, layer lists, cycles) must match
exactly and floats to 1e-9 relative; non-JSON stdout (the `map` CSV) must
match as text. Regenerate snapshots, only at a commit whose output is the
reference, with `PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]`:
the named ones, or all of them when no name is given.
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
from cuspidal_kit.kinematics import RobotModel
from cuspidal_kit.scenarios import canonical_3r

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = ["3r-infeasible-line", "3r-infeasible-line-control", "3r-cusp-loop",
            "3r-control-loop"]
CASES = [(f, mode) for f in FIXTURES for mode in ("default", "nonsingular")]
_FREE = [-math.pi, math.pi]
# joint limits of the 3r-canonical variants behind the "{robot:NAME}" files
LIMITS = {
    "q3": [_FREE, _FREE, [-3.0, 0.5]],
    "q2-multi-turn": [_FREE, [0.0, 2 * math.pi], _FREE],
    "q1-q2-multi-turn": [[-7.0, 7.0], [-2.0, 1.0], _FREE],
}
# "{helix}" stands for a 30-sample helix toolpath file and "{robot:NAME}"
# for a 3r-canonical robot file with joint limits LIMITS[NAME], both written
# at run time
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
COMMANDS.update({f"plan_3r-cusp-loop_limits-{name}": [
    "plan", "--robot", f"{{robot:{name}}}", "--path", "3r-cusp-loop", "--ik-seeds", "6"]
    for name in LIMITS})


def _write_input(placeholder: str, workdir) -> str:
    if placeholder == "{helix}":
        doc = fileio.generate_helix(samples=30)
    else:
        name = placeholder[len("{robot:"):-1]
        base = canonical_3r()
        doc = fileio.robot_to_doc(RobotModel(
            axes=base.axes, offsets=base.offsets, tool_offset=base.tool_offset,
            joint_limits=LIMITS[name], name=f"3r-canonical-{name}"))
    target = Path(workdir) / f"{placeholder.strip('{}').replace(':', '-')}.json"
    fileio.save_json(doc, target)
    return str(target)


def _reject_constant(name: str):
    raise AssertionError(f"stdout is not strict JSON: it holds {name}")


def _run(name: str, workdir) -> dict:
    argv = [_write_input(a, workdir) if a.startswith("{") else a for a in COMMANDS[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    try:
        stdout = json.loads(buf.getvalue(), parse_constant=_reject_constant)
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


@pytest.mark.parametrize("name", [n for n in COMMANDS if n.startswith("plan_3r-cusp-loop_limits-")])
def test_plan_with_joint_limits_matches_snapshot(tmp_path, name):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", [n for n in COMMANDS if not n.startswith("plan_")])
def test_command_matches_snapshot(tmp_path, name):
    _check(name, tmp_path)


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = [n for n in names if n not in COMMANDS]
    if unknown:
        sys.exit(f"unknown snapshot names {unknown}; known: {sorted(COMMANDS)}")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            snap = _run(name, workdir)
            _snapshot(name).write_text(json.dumps(snap, indent=1, sort_keys=True) + "\n")
            print(f"{_snapshot(name).name}: exit {snap['exit']}", file=sys.stderr)
