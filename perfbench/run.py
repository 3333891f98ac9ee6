"""Benchmark of cuspidal-kit: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload plan-segment-3r --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Each pass calls `cuspidal_kit.cli.main` in-process with stdout captured,
once per command line of the workload (see workloads.py), and every answer
is checked. Passes repeat until --seconds have been measured. With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of traced passes,
alternated with untraced ones to measure the tracing overhead.
`--workload all` runs every workload in its own process.
"""

import time

_T_START = time.perf_counter()   # span times in trace files count from here

import os  # noqa: E402

# pin BLAS pools before numpy loads; runs are single-threaded
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CUSPIDAL_KIT_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOADS = ["plan-segment-3r", "plan-loop-3r", "identify-6r", "optimize-3r"]
# set-up is also timed in a fresh process after every pass, and at least
# this many times; setup_s is the median
SETUP_MIN_REPEATS = 6
CHILD_TIMEOUT_S = 170
# reference-kernel time that defines the nominal machine speed
REF_NOMINAL_S = 0.02

END_TO_END = [
    ("setup_s", "s"),
    ("norm_wall_s", "s"),
    ("norm_items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]


def _import_package() -> float:
    """Import cuspidal_kit from this checkout's src/, or exit non-zero.

    Returns the time just after numpy loaded, where set-up timing starts.
    """
    if not (SRC / "cuspidal_kit" / "__init__.py").is_file():
        sys.exit(f"error: no cuspidal_kit package under {SRC}; run from a full checkout")
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cuspidal_kit
    if Path(cuspidal_kit.__file__).resolve().parent != SRC / "cuspidal_kit":
        sys.exit(f"error: imported cuspidal_kit from {cuspidal_kit.__file__}, not {SRC}")
    return t0


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def invoke(argv: list[str]) -> tuple[int | None, str, str]:
    """cli.main(argv) with stdout and stderr captured; None on a crash."""
    from cuspidal_kit import cli
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


class Checker:
    """Checks each call's answer; identical answers are checked once."""

    def __init__(self, workload):
        self.workload = workload
        self.first: dict[str, str] = {}      # call label -> stdout of its first run
        self.verdicts: dict[tuple, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def answers(self, results) -> list[dict] | None:
        """Parsed answers of one pass, or None if any call failed."""
        docs, ok = [], True
        for call, (code, out, err) in zip(self.workload.calls, results):
            self.attempted += 1
            problems = self._check(call, code, out, err)
            if problems:
                self.failed += 1
                ok = False
                self.problems += [f"{call.label}: {p}" for p in problems]
            else:
                docs.append(json.loads(out))
        return docs if ok else None

    def _check(self, call, code, out, err) -> list[str]:
        key = (call.label, code, out)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(call, code, out, err)
        problems = list(self.verdicts[key])
        if out != self.first.setdefault(call.label, out):
            problems.append("stdout differs from the first pass")
        return problems

    @staticmethod
    def _verdict(call, code, out, err) -> list[str]:
        if code not in call.expect_exit:
            return [f"exit {code}, expected {call.expect_exit}: {err.strip()[-300:]}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as e:
            return [f"stdout is not JSON: {e}"]
        with contextlib.redirect_stderr(io.StringIO()):   # library warnings
            return call.check(code, doc)


class ReferenceKernel:
    """A fixed numpy computation, timed before and after every CLI call.

    The machine's speed drifts by up to a half between phases of a few
    seconds (shared cores, clock boost). Dividing a call's wall time by the
    kernel's time around it removes that drift; the normalized time is
    stated in seconds at the speed where the kernel takes REF_NOMINAL_S.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.A = rng.random((4000, 6, 6)) + 6.0 * np.eye(6)
        self.b = rng.random((4000, 6, 1))
        self.x = rng.random((60000, 3))

    def seconds(self, repeats: int = 3) -> float:
        np, best = self.np, float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            np.linalg.solve(self.A, self.b)
            z = np.sin(self.x) * np.cos(self.x) + np.sqrt(self.x)
            np.argsort(np.einsum("ij,ij->i", z, self.x), kind="stable")
            best = min(best, time.perf_counter() - t0)
        return best


def run_pass(workload, kernel, ref_before: float, tag: str,
             tracer=None) -> tuple[dict, float, list]:
    """One pass; the reference kernel runs between calls, outside the timing.

    Returns the pass record (wall time, and wall time at the nominal speed
    with each call scaled by the kernel times around it), the reference
    time after the last call, and the CLI results.
    """
    results, wall, norm = [], 0.0, 0.0
    for i, call in enumerate(workload.calls):
        t0 = time.perf_counter()
        if tracer is None:
            results.append(invoke(call.argv))
        else:
            tracer.call_id = f"{tag}.{i}"
            with tracer.span("cli.main"):
                results.append(invoke(call.argv))
        dt = time.perf_counter() - t0
        ref_after = kernel.seconds()
        wall += dt
        norm += dt * REF_NOMINAL_S / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
    return {"traced": tracer is not None, "wall_s": wall, "norm_s": norm}, ref_before, results


def measure(workload, seconds: float, trace: bool, setup_sample) -> dict:
    """Run passes for `seconds`; untraced, or alternating untraced and traced.

    After each pass, `setup_sample()` times set-up in a fresh process, so
    the set-up samples spread over the run as the passes do. Returns the
    checker, one record per pass, the set-up samples, and the peak resident
    memory after set-up and the first pass.
    """
    from tracing import SolutionTap, Tracer, layer_metrics
    checker = Checker(workload)
    tap, tracer, kernel = SolutionTap(), Tracer(), ReferenceKernel()
    passes, layer_rows, solutions, setups = [], [], [], []
    items = plan_cost = peak_rss_mb = None
    t0 = time.perf_counter()
    ref = kernel.seconds()
    while True:
        if trace and len(passes) % 2 == 1:
            first_span = len(tracer.spans)
            with tracer.patched():
                record, ref, results = run_pass(workload, kernel, ref, f"pass{len(passes)}",
                                                tracer)
            layer_rows.append(layer_metrics(tracer.spans[first_span:]))
        else:
            before = tap.exact
            with tap.patched():
                record, ref, results = run_pass(workload, kernel, ref, "")
            solutions.append(tap.exact - before)
        passes.append(record)
        if peak_rss_mb is None:
            # later passes add only allocator fragmentation, which varies
            # from process to process
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        answers = checker.answers(results)
        if answers is not None and items is None:
            items = workload.count_items(answers)
            plan_cost = workload.plan_cost(answers)
        setups.append(setup_sample())
        ref = kernel.seconds()
        n = len(passes)
        if (time.perf_counter() - t0) * (n + 1) / n > seconds and (not trace or n >= 2):
            break
    while len(setups) < SETUP_MIN_REPEATS:
        setups.append(setup_sample())
    return {"checker": checker, "passes": passes, "layer_rows": layer_rows,
            "items": items, "plan_cost": plan_cost, "solutions": solutions,
            "setups": setups, "peak_rss_mb": peak_rss_mb, "spans": tracer.spans}


def _norm_wall(passes: list[dict]) -> float:
    """Median pass time at the nominal machine speed."""
    return statistics.median(p["norm_s"] for p in passes)


def setup_sample(args) -> float:
    """Normalized set-up time of a fresh process."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def _line(name: str, value, unit: str) -> str:
    return f"{name:32s} {value!r:>24} {unit}"


def run_one(args) -> int:
    t_setup = _import_package()
    import workloads
    from tracing import PER_LAYER
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.build(args.workload, args.seed, work, args.size)
        # set-up the program owns: its imports and the inputs, not the
        # interpreter or numpy, at the nominal machine speed
        setup_here = ((time.perf_counter() - t_setup) * REF_NOMINAL_S
                      / ReferenceKernel().seconds())
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        m = measure(workload, args.seconds, bool(args.trace), lambda: setup_sample(args))
        setup = [setup_here] + m["setups"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = m["checker"]
    untraced = [p for p in m["passes"] if not p["traced"]]
    norm_wall = _norm_wall(untraced)
    wall = statistics.median(p["wall_s"] for p in untraced)
    items = m["items"] or 0
    error_rate = checker.failed / checker.attempted
    # metrics of this workload that BENCHMARK.json does not gate
    extra = [(name, value, unit) for name, value, unit in (
        ("wall_s", wall, "s"),
        (f"{workload.item}_per_s", items / wall, "1/s"),
        ("error_rate", error_rate, "ratio"),
        ("ik_solutions", statistics.median(m["solutions"]), "count"),
        ("plan_cost", m["plan_cost"], "weight"),
    ) if value is not None]
    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "env": environment(), f"{workload.item}_per_pass": items,
        **{name: value for name, value, _ in extra},
        "setup_samples_s": setup, "passes": m["passes"], "problems": checker.problems[:20],
    }
    if args.trace:
        rows = m["layer_rows"]
        metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
        traced = [p for p in m["passes"] if p["traced"]]
        metrics["trace.overhead_share"] = _norm_wall(traced) / norm_wall - 1.0
        units, extra = PER_LAYER, []
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(_relative(m["spans"], _T_START)))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "norm_wall_s": norm_wall,
            "norm_items_per_s": items / norm_wall,
            "peak_rss_mb": m["peak_rss_mb"],
            "success_rate": 1.0 - error_rate,
        }
        units = END_TO_END

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(m['passes'])} passes, "
          f"{checker.attempted} CLI calls, {checker.failed} failed")
    for p in checker.problems[:20]:
        print(f"# FAILED {p}")
    for name, unit in units:
        print(_line(name, metrics[name], unit))
    for name, value, unit in extra:
        print(_line(name, value, unit))
    print("# detail " + json.dumps(detail))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }))
    return 0


def _relative(spans: list[dict], t0: float) -> list[dict]:
    return [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in spans]


def run_all(args) -> int:
    """Every workload in its own process; prints each one's output."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy shrinks every input, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
