"""localspec benchmark: one workload, a closed loop of CLI operations, one client.

Run from the root of a checkout, with BLAS pinned to one thread:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 bench/run.py \\
        --workload cluster-sbm60 --seed 1 --seconds 20 --trace 0

Each operation calls `localspec.cli.main(argv)` in this process and starts
when the previous one ends. Runs repeat whole rounds of the pool until the
operations have taken `--seconds`; every output is checked outside the
timed intervals. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics for `--trace 0` and the per-layer metrics for `--trace 1`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cluster-sbm60", "localize-batch", "roundtrip-orth60"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import and build the inputs."""
    samples = []
    command = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_op(cli, op) -> tuple[list[str], list[str]]:
    """Run an operation's commands; return their stdout and any errors."""
    stdout, errors = [], []
    for argv in op.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                code = f"{type(exc).__name__}: {exc}"
        stdout.append(out.getvalue())
        if code != 0:
            errors.append(f"exit {code}: {err.getvalue().strip()}")
    return stdout, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "localspec" / "__init__.py").is_file():
        print(f"no localspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    if args.setup_only:
        import workloads

        workdir = Path(tempfile.mkdtemp(dir=WORK))
        try:
            workloads.build(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir)
        return 0

    setup_s = None if args.trace else measure_setup(args)

    import localspec
    import workloads
    from localspec import cli
    from tracing import Tracer

    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        pool = workloads.build(args.workload, args.seed, workdir)
        pool.references()
        tracer = Tracer(localspec)
        if args.trace:
            tracer.install()
        try:
            run_op(cli, pool.ops[0])  # warm-up, untimed
            tracer.reset()
            times, failed, unexpected = [], 0, []
            while sum(times) < args.seconds:
                for op in pool.ops:
                    start = time.perf_counter()
                    stdout, errors = run_op(cli, op)
                    times.append(time.perf_counter() - start)
                    try:
                        problems = errors or op.check(stdout)
                    except Exception as exc:  # unreadable output fails the operation
                        problems = [f"check raised {exc!r}"]
                    if problems:
                        failed += 1
                        if op.kept_failure is None:
                            unexpected.append(f"{op.label}: {problems[0]}")
        finally:
            tracer.remove()
    finally:
        shutil.rmtree(workdir)

    for line in sorted(set(unexpected)):
        print(f"FAILED {line}", file=sys.stderr)
    op_seconds = sum(times)
    if args.trace:
        metrics = tracer.per_op(len(times), op_seconds)
        print(f"traced op_p50_s {statistics.median(times):.6f}", file=sys.stderr)
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": len(times) / op_seconds, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
