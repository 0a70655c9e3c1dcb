"""End-to-end and per-layer benchmark of the modcode CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload forge-ladder --seed 1 --seconds 60 --trace 0

With ``--trace 0`` the benchmark runs the workload's command sequence as a
user does: one fresh ``python -m modcode.cli ... --json`` process per
command, one at a time, with the checkout's ``src`` on the path, no install
and ``MODCODE_BUDGET`` unset.  It cycles through the command sequence while
the next command fits in ``--seconds``, after one full pass, checks every
exit code and verdict, and prints the end-to-end metrics.

With ``--trace 1`` it runs one untraced pass of the workload, then replays
the commands of all three command sets (``forge-ladder``, ``minlen-search``
and ``mds-scan``) in this process with a span around each library call (see
``traced.py``).  It prints the per-layer metrics, their
bases and the tracing overhead, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong exit code or
verdict makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from workloads import FULL, ROOT, SRC, WORKLOADS, Bench, Command, workload_commands

OUT = ROOT / ".bench_out"
# Stop starting commands after this long, so a run ends well within 180 s.
DEADLINE_S = 170.0
SETUPS_PER_PASS = 3


class Deadline(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MODCODE_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Runner:
    """Runs CLI processes one at a time and tallies verdicts."""

    deadline: float
    env: dict = field(default_factory=child_env)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise Deadline
        return left

    def tally(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((name, problems))

    def setup_probe(self) -> float:
        """Seconds from spawning an interpreter to the end of `import modcode.cli`."""
        code = "import time, modcode.cli as c; print(time.time()); print(c.__file__)"
        start = time.time()
        try:
            proc = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise Deadline from None
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not lines[1].startswith(str(SRC)):
            raise SystemExit(f"bench: cannot import modcode.cli from {SRC}: "
                             f"{proc.stderr.strip()[-300:]}")
        return float(lines[0]) - start

    def run(self, cmd: Command) -> float:
        """Run one command, check its verdict and return its wall time in seconds."""
        if cmd.prepare is not None:
            cmd.prepare()
        argv = [sys.executable, "-m", "modcode.cli", *cmd.argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise Deadline from None
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            problems = [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            try:
                problems = cmd.verify(json.loads(proc.stdout))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        self.tally(cmd.name, problems)
        return wall

    def cycle(self, cmds: list[Command], seconds: float, setups_per_pass: int):
        """Cycle through the commands while the next one is expected to fit in `seconds`.

        The first pass always runs in full, in the workload's order.  Later
        passes run the commands largest first, so a last pass that is cut
        short still samples the largest ones.  Later commands start only if
        their previous wall time still fits, so a run uses its time fully
        without overshooting it.  Setup samples are taken before each pass,
        so they span the same stretch of time as the commands.  Returns each
        command's wall times and the setup samples.
        """
        walls: list[list[float]] = [[] for _ in cmds]
        setups: list[float] = []
        n = len(cmds)
        order = list(range(n))
        start = time.perf_counter()
        i = 0
        while i < n or time.perf_counter() - start + walls[order[i % n]][-1] <= seconds:
            if i % n == 0:
                setups += [self.setup_probe() for _ in range(setups_per_pass)]
            walls[order[i % n]].append(self.run(cmds[order[i % n]]))
            i += 1
            if i == n:
                # Every generated input exists after the first pass.
                order.sort(key=lambda j: -walls[j][0])
        return walls, setups


def peak_child_rss_mb() -> float:
    # On Linux this is the largest RSS of any waited-for child, in KiB.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def end_to_end(runner: Runner, cmds: list[Command], seconds: float) -> tuple[dict, dict]:
    walls, setups = runner.cycle(cmds, seconds, SETUPS_PER_PASS)
    # The top command is the workload's last and largest case.
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(w) for w in walls), "s"),
        "top_s": (statistics.median(walls[-1]), "s"),
        "peak_rss_mb": (peak_child_rss_mb(), "MB"),
    }
    runs = sum(map(len, walls))
    info = {"passes": round(runs / len(cmds), 2), "commands": len(cmds),
            "top": f"'{cmds[-1].name}'", "setup_samples": len(setups)}
    return metrics, info


def report(workload: str, seed: int, runner: Runner, metrics: dict, info: dict,
           bases: dict) -> dict:
    print(f"workload {workload}  seed {seed}  "
          + "  ".join(f"{key} {value}" for key, value in info.items()))
    for name, (value, unit) in metrics.items():
        base = f"  (base: {bases[name]})" if name in bases else ""
        print(f"{name:26s} {value:.6g} {unit}{base}")
    rate = runner.failed / runner.attempted if runner.attempted else 0.0
    print(f"{'error_rate':26s} {rate:.6g}  ({runner.failed} of {runner.attempted} commands)")
    for name, problems in runner.problems:
        print(f"FAILED {name}: " + "; ".join(problems), file=sys.stderr)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, bench: Bench = FULL) -> dict:
    """Run one benchmark measurement, print its report and return the result object."""
    if not (SRC / "modcode" / "cli.py").is_file():
        raise SystemExit(f"bench: no modcode sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    runner = Runner(deadline=time.perf_counter() + DEADLINE_S)
    try:
        cmds = workload_commands(workload, bench, work, seed)
        runner.setup_probe()  # fills the bytecode cache, which users do not rebuild every run
        if not trace:
            metrics, info = end_to_end(runner, cmds, seconds)
            return report(workload, seed, runner, metrics, info, {})
        from traced import traced_run  # imports modcode into this process

        walls, setups = runner.cycle(cmds, 0, SETUPS_PER_PASS)
        setup = statistics.median(setups)
        spans_path = OUT / f"spans-{workload}-{seed}.json"
        metrics, bases, info = traced_run(workload, seed, bench, work, runner,
                                          sum(w[0] for w in walls) - setup * len(cmds), spans_path)
        return report(workload, seed, runner, metrics, info, bases)
    except Deadline:
        runner.tally("run", [f"stopped at the {DEADLINE_S} s deadline"])
        return report(workload, seed, runner, {}, {}, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the modcode CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
