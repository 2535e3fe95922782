#!/usr/bin/env python3
"""tgeom benchmark: one seeded workload, timed end to end or per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey-grid --seed 1 --seconds 25 --trace 0

The workload runs in this process as a closed loop of one client with no
threads: each op starts when the previous one has been checked. Every
op's output is compared with an answer from ``reference.py``, which
shares no code with tgeom; a wrong answer or an exception counts as a
failed op, and the command then exits 1.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it runs half the time untraced and half traced, and prints the per-layer
metrics and the tracing overhead. Human-readable lines come first; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 2 means the run could not start,
for instance because ``src/tgeom`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_CAP = 98.0  # see README: above p98 the queries tail jumps with the request mix
MIN_TRACE_OPS = 3  # per phase of a traced run

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import tgeom; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--plant-wrong", action="store_true",
                        help="corrupt the expected answer of op 0, for the self-test")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def time_import() -> float:
    """Seconds a fresh interpreter spends on ``import tgeom``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


class Loop:
    """Closed loop over one workload; counts attempted and failed ops."""

    def __init__(self, workload, plant_wrong: bool):
        self.workload = workload
        self.plant_wrong = plant_wrong
        self.next_op = 0
        self.attempted = 0
        self.failures: list[str] = []

    def one(self, tracer=None) -> float:
        wl, k = self.workload, self.next_op
        self.next_op += 1
        req = wl.request(k)
        if tracer is not None:
            tracer.op = k
        start = time.perf_counter()
        try:
            out = wl.op(req)
        except Exception as exc:  # a failing op is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - start
        self.attempted += 1

        expected = wl.expected(req)
        if self.plant_wrong and k == 0:
            expected = ("planted wrong answer", expected)
        if isinstance(out, Exception):
            got = f"{type(out).__name__}: {out}"
        else:
            try:
                got = wl.observe(req, out)
            except Exception as exc:  # malformed output
                got = f"unreadable output ({type(exc).__name__}: {exc})"
        if got != expected:
            self.failures.append(f"op {k}: expected {expected!r:.300}, got {got!r:.300}")
        return elapsed

    def measure(self, seconds: float, min_ops: int, tracer=None) -> list[float]:
        latencies = []
        deadline = time.perf_counter() + seconds
        while len(latencies) < min_ops or time.perf_counter() < deadline:
            latencies.append(self.one(tracer))
        return latencies


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest percentile, at most TAIL_CAP, with TAIL_BEYOND samples beyond it.

    Returns the value and its rank in ascending order (1-based).
    """
    ordered = sorted(latencies)
    rank = min(len(ordered) - TAIL_BEYOND, math.ceil(len(ordered) * TAIL_CAP / 100))
    return ordered[rank - 1], rank


def end_to_end(loop, seconds, setup_samples) -> tuple[dict, list[str]]:
    latencies = loop.measure(seconds, TAIL_BEYOND + 1)
    n = len(latencies)
    p50 = statistics.median(latencies)
    tail_value, tail_rank = tail(latencies)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "op_p50_ms": f"{n} ops",
        "op_tail_ms": f"p{100 * tail_rank / n:.2f} of {n} ops, {n - tail_rank} beyond",
        "ops_per_s": f"{n} ops in {sum(latencies):.3f} s of op time",
        "peak_rss_mb": "maximum resident set of this process",
    }
    return metrics, [f"{name} {v!r} {unit} ({notes[name]})"
                     for name, (v, unit) in metrics.items()]


def per_layer(loop, seconds) -> tuple[dict, list[str], Tracer]:
    plain = loop.measure(seconds / 2, MIN_TRACE_OPS)
    tracer = Tracer()
    tracer.install()
    try:
        traced = loop.measure(seconds / 2, MIN_TRACE_OPS, tracer)
    finally:
        tracer.uninstall()
    plain_p50, traced_p50 = statistics.median(plain), statistics.median(traced)
    values = tracer.layer_metrics(len(traced), 1e3 * (traced_p50 - plain_p50))
    units = dict(PER_LAYER)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    hits, requests = tracer.counts["linear.solve_hits"], tracer.counts["linear.solve_requests"]
    notes = {
        "linear.solve_hit_ratio": f"{hits} of {requests} requests had a solution",
        "trace.overhead_ms": (
            f"traced op_p50_ms {1e3 * traced_p50!r} over {len(traced)} ops minus "
            f"untraced {1e3 * plain_p50!r} over {len(plain)} ops"
        ),
    }
    lines = [f"{name} {v!r} {unit}" + (f" ({notes[name]})" if name in notes else "")
             for name, (v, unit) in metrics.items()]
    lines.append(f"per-layer values are per traced op ({len(traced)} ops), "
                 "except the hit ratio")
    return metrics, lines, tracer


def run(args, workload_type, workdir: Path) -> int:
    env = environment(args.seed)
    print(f"perfbench {args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    wl = workload_type(args.seed, workdir, args.tiny)

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        import_s = time_import()
        start = time.perf_counter()
        wl.setup()
        setup_samples.append(import_s + time.perf_counter() - start)
    wl.prepare()

    loop = Loop(wl, args.plant_wrong)
    loop.one()  # warm-up, checked but not timed
    if args.trace:
        metrics, lines, tracer = per_layer(loop, args.seconds)
        spans_file = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_file, {"workload": args.workload, "env": env})
        lines.append(f"spans: {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(loop, args.seconds, setup_samples)

    failed = len(loop.failures)
    lines.append(f"fail_ratio {failed / loop.attempted!r} ratio "
                 f"({failed} of {loop.attempted} ops failed or were wrong)")
    print("\n".join(lines))
    for failure in loop.failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failed,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tgeom" / "__init__.py").is_file():
        print(f"perfbench: no tgeom sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tgeom

    if SRC.resolve() not in Path(tgeom.__file__).resolve().parents:
        print(f"perfbench: imported tgeom from {tgeom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        return run(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
