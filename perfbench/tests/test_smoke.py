"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest perfbench/tests -q

Every workload runs once untraced and once traced; each metric named in
BENCHMARK.json must be printed with its unit, and a wrong expected answer
must be counted as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run._import_package()


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--size", "toy"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_harness():
    from tracing import PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_prints_every_metric(workload, trace):
    lines, result = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", trace)
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line.split() for line in lines if line.startswith(m["name"] + " ")]
        assert len(printed) == 1 and printed[0][-1] == m["unit"], m["name"]
    if trace == "1":
        # plan on a closed path solves all IK twice, other plans once
        per_plan = {"plan-segment-3r": 1.0, "plan-loop-3r": 2.0,
                    "identify-6r": 0.0, "optimize-3r": 1.0}[workload]
        assert result["metrics"]["planner.build_layers_per_plan"]["value"] == per_plan


def test_wrong_expected_answer_counts_as_error(monkeypatch, capsys):
    import workloads
    build = workloads.build

    def wrong_build(*args):
        wl = build(*args)
        for call in wl.calls:
            if call.label == "infeasible":
                call.expect_exit = (0,)      # claim that the infeasible line plans
        return wl

    monkeypatch.setattr(workloads, "build", wrong_build)
    assert run.main(["--workload", "plan-segment-3r", "--seed", "3", "--seconds", "0.1",
                     "--size", "toy"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(line for line in lines if line.startswith("# detail "))[9:])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2 >= 1
    assert detail["error_rate"] == 0.5
    assert result["metrics"]["success_rate"]["value"] == 0.5
    assert any("infeasible: exit 4" in line for line in lines)
