"""Benchmark for cotverify: one command, three workloads, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {dim,online,boost} --seed N \
        --seconds S --trace {0,1}

The program is imported from the checkout's own src/.  With --trace 0 the
run measures the end-to-end metrics; with --trace 1 it measures first
untraced, then traced, for half the time each, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# A run sets up at least SETUPS times and for at least SETUP_S seconds (at
# most SETUPS_MAX times) before it measures, and as often again after;
# setup_s is the median of all of them.  Setting up at both ends of the run
# keeps one slow or fast spell of the machine from deciding setup_s.
SETUPS, SETUP_S, SETUPS_MAX = 3, 1.0, 100

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import cotverify from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "cotverify" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'cotverify'}")
    sys.path.insert(0, str(src))
    import cotverify
    if Path(cotverify.__file__).resolve().parent != (src / "cotverify").resolve():
        raise SystemExit(f"error: cotverify imported from {cotverify.__file__}")
    return cotverify


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Loop:
    """Figures of one measured closed loop."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = {}  # op kind -> seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def samples(self) -> list[float]:
        """The latencies the figures are taken over.

        A round holds one op of each kind.  With several kinds, each
        kind's latency is its median over the run, so the figures describe
        a median round and a slow or fast spell of the machine shifts them
        less; with a single kind they are the ops' own latencies.
        """
        if not self.latencies:
            raise SystemExit("error: no op completed, nothing to measure")
        if len(self.latencies) == 1:
            return next(iter(self.latencies.values()))
        return [statistics.median(v) for v in self.latencies.values()]

    @property
    def ops_per_s(self) -> float:
        samples = self.samples()
        return len(samples) / sum(samples)


def measure(workload, seconds: float, tracer=None) -> Loop:
    """Run whole rounds of ops until `seconds` have passed."""
    loop = Loop()
    clock = time.perf_counter
    start = clock()
    r = 0
    while True:
        for label, run, check in workload.round(r):
            loop.attempted += 1
            if tracer is not None:
                tracer.begin(loop.attempted, label)
            t0 = clock()
            try:
                output = run()
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            t1 = clock()
            if tracer is not None:
                tracer.add_op(tracer.end())
            if not ok:
                loop.failed += 1
                continue
            loop.latencies.setdefault(label, []).append(t1 - t0)
            loop.problems += check(output)
        loop.problems += workload.round_problems()
        r += 1
        if clock() - start >= seconds:
            break
    loop.problems += workload.run_problems()
    return loop


def latency_ms(samples: list[float], q: int) -> float:
    """The q-th percentile of the latency samples, in ms."""
    if len(samples) < 2:
        return 1000 * samples[0]
    return 1000 * statistics.quantiles(samples, n=100)[q - 1]


def set_up(make, workdir: str, seed: int):
    """Set a workload up repeatedly; return the times and the last one."""
    times = []
    while len(times) < SETUPS or (sum(times) < SETUP_S and len(times) < SETUPS_MAX):
        workload = make(workdir, seed)
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times, workload


def run_workload(name: str, seed: int, seconds: float, trace_path,
                 workdir: str) -> dict:
    """Set up and measure one workload; with a trace_path, run traced too."""
    import workloads

    make = workloads.WORKLOADS[name]
    problems: list[str] = []
    if trace_path is None:
        setup_times, workload = set_up(make, workdir, seed)
        problems += workload.problems
        loop = measure(workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        del workload
        setup_times += set_up(make, workdir, seed)[0]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": loop.ops_per_s,
            "op_p50_ms": latency_ms(loop.samples(), 50),
            "op_p90_ms": latency_ms(loop.samples(), 90),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in metrics.items()}
        attempted, failed = loop.attempted, loop.failed
        problems += loop.problems
    else:
        import cotverify
        from tracing import Tracer

        workload = make(workdir, seed)
        workload.setup()
        problems += workload.problems
        plain = measure(workload, seconds / 2)
        del workload
        tracer = Tracer()
        tracer.install(cotverify)
        try:
            workload = make(workdir, seed)
            tracer.begin(0, f"setup.{name}")
            workload.setup()
            tracer.end_setup()
            problems += workload.problems
            traced = measure(workload, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(trace_path)
        metrics = tracer.metrics(plain.ops_per_s, traced.ops_per_s)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        problems += plain.problems + traced.problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def environment(cotverify) -> dict:
    from cotverify import kernels

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernels.BACKEND,
        "git_revision": git_revision(),
        "cotverify": str(Path(cotverify.__file__).parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["dim", "online", "boost"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cotverify = import_program()
    env = environment(cotverify)
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace_path, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} "
          f"failed = {result['failed']} correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
