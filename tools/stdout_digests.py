"""sha256 digests of the stdout and stderr of a fixed set of CLI calls.

    PYTHONPATH=src python tools/stdout_digests.py > digests.txt

Prints one line per call: label, exit code, and the sha256 of its stdout
and of its stderr. The calls are:

- every call the benchmark's four workloads build at seeds 1, 7 and 21,
  read from perfbench/workloads.py;
- `plan` on the four path fixtures x {3r-canonical, 3r-elbow} x
  {default, --nonsingular};
- `optimize` on a closed helix and a tangent-following helix, for
  3r-canonical and, on the tangent-following one, 3parallel-cuspidal.

A change that is meant to keep every answer must print the same lines as
its parent. To compare against a git revision REF in one step:

    python tools/stdout_digests.py --against REF

exports REF with `git archive` into a temporary directory, runs that
checkout's own copy of this tool and this one, each in a subprocess, and
prints every label whose line differs or that only one side prints. It
exits 1 if any does, or if either run exits nonzero.

The calls run in-process in a temporary directory, and every input file is
named relative to it, so no line depends on where the checkout lives.
Exits 1 if a call raised instead of returning an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cuspidal_kit import cli  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1, 7, 21)
FIXTURES = ("3r-infeasible-line", "3r-infeasible-line-control", "3r-cusp-loop",
            "3r-control-loop")
HELICES = {
    "closed-helix": ["--pitch", "0", "--turns", "1", "--samples", "30"],
    "tangent-helix": ["--orientation", "tangent-following", "--samples", "30"],
}
OPTIMIZE = ["--starts", "2", "--seed", "0", "--max-evals", "20", "--threads", "1"]


def calls():
    """(label, argv) of every call, in order. The workload calls are built
    when they are reached, since their input files share names across
    seeds."""
    for seed in SEEDS:
        for name in workloads.BUILDERS:
            wl = workloads.build(name, seed, Path("."))
            for call in wl.calls:
                yield f"{name}/seed{seed}/{call.label}", call.argv
    for robot in ("3r-canonical", "3r-elbow"):
        for fixture in FIXTURES:
            for mode, extra in (("default", []), ("nonsingular", ["--nonsingular"])):
                yield (f"plan/{robot}/{fixture}/{mode}",
                       ["plan", "--robot", robot, "--path", fixture, *extra])
    for name, args in HELICES.items():
        yield f"helix/{name}", ["helix", *args, "--out", f"{name}.json"]
    for robot, helix in (("3r-canonical", "closed-helix"), ("3r-canonical", "tangent-helix"),
                         ("3parallel-cuspidal", "tangent-helix")):
        yield (f"optimize/{robot}/{helix}",
               ["optimize", "--robot", robot, "--toolpath", f"{helix}.json", *OPTIMIZE])


def invoke(argv: list[str]) -> tuple[int | None, str, str]:
    """cli.main(argv) with stdout and stderr captured; None if it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests() -> int:
    crashed = []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for label, argv in calls():
                code, out, err = invoke(argv)
                print(label, code, _sha(out), _sha(err), flush=True)
                if code is None:
                    crashed.append(label)
                    print(err, file=sys.stderr)
        finally:
            os.chdir(home)
    if crashed:
        print(f"error: {len(crashed)} calls raised: {', '.join(crashed)}", file=sys.stderr)
    return 1 if crashed else 0


def _run_tool(checkout: Path) -> tuple[int, dict[str, str]]:
    """Exit code and {label: rest of line} of the tool in checkout."""
    done = subprocess.run([sys.executable, str(checkout / "tools" / "stdout_digests.py")],
                          stdout=subprocess.PIPE, text=True)
    lines = dict(line.split(" ", 1) for line in done.stdout.splitlines())
    return done.returncode, lines


def against(ref: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        ref_code, ref_lines = _run_tool(Path(tmp))
    code, lines = _run_tool(ROOT)
    labels = dict.fromkeys([*ref_lines, *lines])
    differ = [label for label in labels if ref_lines.get(label) != lines.get(label)]
    for label in differ:
        print(f"{label}\n  {ref}: {ref_lines.get(label, 'missing')}\n"
              f"  this: {lines.get(label, 'missing')}")
    print(f"{len(labels) - len(differ)} calls identical, {len(differ)} differ")
    for side, exit_code in ((ref, ref_code), ("this checkout", code)):
        if exit_code:
            print(f"error: the run in {side} exited {exit_code}", file=sys.stderr)
    return 1 if differ or ref_code or code else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REF",
                        help="compare with the digests of git revision REF")
    args = parser.parse_args()
    return against(args.against) if args.against else digests()


if __name__ == "__main__":
    sys.exit(main())
