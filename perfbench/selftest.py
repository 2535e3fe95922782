#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` at tiny size, untraced and
traced, and requires a correct result that carries exactly the metrics
the file declares. Then it plants a wrong expected answer in each
workload and requires the run to report the failure and exit non-zero.

    python3 perfbench/selftest.py

Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(workload: str, *flags: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--tiny", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in declared.items():
            code, result = bench(workload, "--trace", trace)
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: failed smoke run")
            if units != names:
                problems.append(f"{workload} trace={trace}: metrics differ from "
                                "BENCHMARK.json")
        code, result = bench(workload, "--trace", "0", "--plant-wrong")
        if code == 0 or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: planted wrong answer went unnoticed")
        else:
            print(f"{workload}: smoke runs ok; planted answer gave fail_ratio "
                  f"{result['failed'] / result['attempted']!r}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
