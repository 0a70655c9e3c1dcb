"""Self-test of the benchmark, on the cheapest case of each workload.

Run from the root of a checkout:

    python3 bench/selftest.py

It checks that each workload's end-to-end and traced runs are correct and
emit exactly the metric names and units listed in BENCHMARK.json, that the
same seed gives the same inputs, and that the benchmark exits nonzero without
a result where the modcode sources are missing.  It takes about ten seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
from workloads import FULL, ROOT, WORKLOADS, workload_commands


def check_metrics(result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"not correct: {result['failed']} of {result['attempted']} failed")
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {sorted(got.items())} != {sorted(expected.items())}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        # On the cheapest cases a command's wall barely exceeds the setup time,
        # so the overhead ratio's denominator (wall_s - setup_s x commands) can
        # fall to or below zero; it is only required to be a number there.
        floor = -math.inf if name == "trace.overhead_ratio" else 0
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= floor:
            problems.append(f"{name} = {value!r} is not a number above {floor}")
    return problems


def check_seeded_inputs() -> list[str]:
    """The same seed writes the same code files; another seed writes others."""
    files = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = run.OUT / f"selftest-seed-{label}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload_commands("mds-scan", FULL, work, seed)
        files[label] = {p.name: p.read_text() for p in sorted(work.iterdir())}
        shutil.rmtree(work)
    problems = []
    if files["a"] != files["b"]:
        problems.append("seed 7 gave two different input sets")
    if files["a"] == files["c"]:
        problems.append("seeds 7 and 8 gave the same inputs")
    return problems


def check_fails_without_sources() -> list[str]:
    """In a directory holding only BENCHMARK.json and bench/, the run must fail."""
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mds-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    small = FULL.smallest()
    for workload in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.measure(workload, seed=1, seconds=0, trace=trace, bench=small)
            problems += [f"{workload} trace={int(trace)}: {p}"
                         for p in check_metrics(result, expected)]
    problems += check_seeded_inputs() + check_fails_without_sources()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
