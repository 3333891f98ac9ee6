"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(example, str(README), "exec"), {})
    status, plan = capsys.readouterr().out.splitlines()
    assert status == "proven_cuspidal"
    feasible, rms = plan.split()
    assert feasible == "True" and float(rms) > 0.0
