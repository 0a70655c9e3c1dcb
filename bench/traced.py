"""Traced in-process replay of the benchmark's commands.

The replay calls the public modcode functions in the order the CLI calls
them.  Spans come only from this file: each probed function is wrapped, for
the length of the replay, in the module namespaces it is looked up from, so a
call from inside the library (the criterion inside ``extend_to_monomial``,
``is_mds`` inside ``mds_extension_check``) opens a child span.  Nothing in
``src/`` changes.  Spans are kept in memory and written out at the end.

A layer's ``*_s`` metric is the summed self time of its spans: span duration
minus the time its child spans cover.  Rates use the inclusive time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (COMMAND_SETS, SRC, Bench, Command, counterexample_length,
                       workload_commands)

sys.path.insert(0, str(SRC))

import modcode  # noqa: E402

if not modcode.__file__.startswith(str(SRC)):
    raise SystemExit(f"bench: modcode was imported from {modcode.__file__}, not {SRC}")

from modcode import codes, forge, fourier, io, linalg, mds  # noqa: E402

# (module, attribute, span name).  A function is listed once per module that
# calls it, so calls from inside the library are traced too.
PROBES = (
    ("modcode.forge", "minimal_counterexample", "forge.construct"),
    ("modcode.forge", "min_nontrivial_length", "forge.search"),
    ("modcode.forge", "incidence_matrix", "forge.incidence"),
    ("modcode.io", "save_code", "io.save"),
    ("modcode.io", "load_code", "io.load"),
    ("modcode.codes", "is_isometry_criterion", "codes.criterion"),
    ("modcode.codes", "extend_to_monomial", "codes.extend"),
    ("modcode.codes", "is_isometry_bruteforce", "codes.oracle"),
    ("modcode.codes", "kernel_tuple", "codes.kernels"),
    ("modcode.codes", "kernel_support_multiset", "codes.kernels"),
    ("modcode.mds", "is_mds", "mds.is_mds"),
    ("modcode.mds", "exhaustive_isometry_scan", "mds.scan"),
    ("modcode.mds", "mds_extension_check", "mds.extension_check"),
    ("modcode.mds", "is_isometry_criterion", "codes.criterion"),
    ("modcode.mds", "extend_to_monomial", "codes.extend"),
    ("modcode.mds", "kernel_support_multiset", "codes.kernels"),
    ("modcode.fourier", "verify_dual_equation", "fourier.verify_dual"),
)
# Pairs verified by the dual equation: every rung but those above this length,
# where verify_dual_equation takes ~20 s.
DUAL_MAX_N = 200


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class Tracer:
    """In-memory spans with a stack for parent links."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    run: str = ""

    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self.stack.append(span.id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> list:
        """Wrap every probe in place; return what `uninstall` needs to restore."""
        saved = []
        for module_name, attr, name in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return saved

    @staticmethod
    def uninstall(saved: list) -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += s.end - s.start - child[s.id]
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


# ---------------------------------------------------------------- replays
# Each mirrors the matching command in modcode.cli and returns the --json
# report fields the benchmark checks, plus any object later probes reuse.


def _basis(S) -> list[list[int]]:
    return [[int(x) for x in row] for row in S.basis]


def replay_forge(p: dict):
    q, m, k = p["q"], p["m"], p["k"]
    linalg.check_prime(q)
    lam, mu = forge.minimal_counterexample(q, m, k)
    io.save_code(lam, p["lam"])
    io.save_code(mu, p["mu"])
    isometry = codes.is_isometry_criterion(lam, mu)
    extendable = not isinstance(codes.extend_to_monomial(lam, mu), codes.Unextendable)
    rep = {"N": counterexample_length(q, m), "length": lam.length, "isometry": isometry,
           "extendable": extendable}
    return rep, (lam, mu)


def replay_check(p: dict):
    lam = io.load_code(p["lam"])
    mu = io.load_code(p["mu"])
    rep: dict = {"isometry": codes.is_isometry_criterion(lam, mu)}
    if p["oracle"]:
        rep["isometry_oracle"] = codes.is_isometry_bruteforce(lam, mu)
    if rep["isometry"]:
        result = codes.extend_to_monomial(lam, mu)
        rep["extendable"] = not isinstance(result, codes.Unextendable)
        if not rep["extendable"]:
            rep["kernel_diff"] = {
                "lambda_only": [[_basis(S), n] for S, n in result.lambda_only],
                "mu_only": [[_basis(S), n] for S, n in result.mu_only],
            }
    return rep, None


def replay_minlen(p: dict):
    linalg.check_prime(p["q"])
    result = forge.min_nontrivial_length(p["q"], p["m"], p["t"], p["bound"])
    witness = None
    if result.witness is not None:
        witness = [[_basis(col), int(c)] for col, c in zip(result.system.cols, result.witness)
                   if c != 0]
    return {"min_length": result.min_length, "exhausted": result.exhausted,
            "witness": witness}, None


def replay_mds(p: dict):
    code = io.load_code(p["code"])
    report = mds.is_mds(code)
    results = mds.exhaustive_isometry_scan(code)
    rep = {"is_mds": report.is_mds, "isometries": len(results),
           "unextendable": sum(1 for _, ok in results if not ok)}
    if report.is_mds and report.kappa != 2:
        violation = False
        for mu, _ in results:
            try:
                outcome = mds.mds_extension_check(code, mu)
            except (modcode.DomainRejectionError, modcode.NotAnIsometryError):
                continue
            violation |= isinstance(outcome, mds.TheoremViolation)
        rep["theorem_violations"] = int(violation)
    candidates = (code.space.q ** (code.space.t * code.alphabet.k)) ** code.length
    return rep, candidates


REPLAYS = {"forge": replay_forge, "check": replay_check, "minlen": replay_minlen,
           "mds": replay_mds}


# ---------------------------------------------------------------- probes


def contains_probe(lam, mu) -> tuple[float, int, bool]:
    """Time `contains` over every (kernel support, subspace of dim <= m) pair.

    These are the pairs one criterion call tests.  Returns the seconds, the
    pair count and whether the two containment counts agree at every subspace.
    """
    sp = lam.space
    lam_k = [col.kernel().support for col in lam.columns]
    mu_k = [col.kernel().support for col in mu.columns]
    subspaces = linalg.subspaces_up_to_dim(sp.q, sp.t, min(sp.m, sp.t))
    contains = linalg.contains
    agree = True
    start = time.perf_counter()
    for S in subspaces:
        n_lam = sum(1 for K in lam_k if contains(K, S))
        n_mu = sum(1 for K in mu_k if contains(K, S))
        agree &= n_lam == n_mu
    seconds = time.perf_counter() - start
    return seconds, len(subspaces) * (len(lam_k) + len(mu_k)), agree


def traced_run(workload: str, seed: int, bench: Bench, work: Path, runner, cli_compute_s: float,
               spans_path: Path) -> tuple[dict, dict, dict]:
    """Replay every command set traced; return (metrics, bases, info)."""
    tracer = Tracer()
    pairs: dict[tuple[int, int, int], tuple] = {}
    candidates = 0
    isometries = 0
    saved = tracer.install()
    try:
        for w in COMMAND_SETS:
            cmds: list[Command] = workload_commands(w, bench, work, seed)
            for i, cmd in enumerate(cmds):
                runner.remaining()
                if cmd.prepare is not None:
                    cmd.prepare()
                tracer.run = f"{w}/{i}:{cmd.name}"
                rep, extra = tracer.span(f"cli.{cmd.kind}", REPLAYS[cmd.kind], cmd.params)
                runner.tally(f"replay {cmd.name}", cmd.verify(rep))
                if cmd.kind == "forge":
                    pairs[(cmd.params["q"], cmd.params["m"], cmd.params["k"])] = extra
                elif cmd.kind == "mds":
                    candidates += extra
                    isometries += rep["isometries"]
        tracer.run = "probe"
        dual_pairs = [pair for pair in pairs.values() if pair[0].length <= DUAL_MAX_N]
        for lam, mu in dual_pairs:
            ok = fourier.verify_dual_equation(codes.kernel_tuple(lam), codes.kernel_tuple(mu))
            runner.tally(f"dual equation n={lam.length}", [] if ok else ["returned False"])
    finally:
        Tracer.uninstall(saved)

    largest = max(pairs, key=lambda key: pairs[key][0].length)
    contains_s, contains_pairs, agree = contains_probe(*pairs[largest])
    runner.tally(f"contains probe {largest}", [] if agree else ["containment counts differ"])

    selfs = tracer.self_times()
    metric_names = dict.fromkeys(name for _, _, name in PROBES)
    metrics = {f"{name}_s": (selfs[name], "s") for name in metric_names}
    replay_s = sum(s.end - s.start for s in tracer.spans
                   if s.parent is None and s.run.startswith(f"{workload}/"))
    metrics.update({
        "linalg.contains_per_s": (contains_pairs / contains_s, "1/s"),
        "mds.candidates_per_s": (candidates / tracer.total("mds.scan"), "1/s"),
        "mds.isometries": (isometries, "count"),
        "trace.overhead_ratio": (replay_s / cli_compute_s, "ratio"),
    })
    bases = {f"{name}_s": f"{tracer.count(name)} spans" for name in metric_names}
    bases.update({
        "linalg.contains_per_s": f"{contains_pairs} pairs at (q,m,k)={largest}",
        "mds.candidates_per_s": f"{candidates} candidate tuples",
        "mds.isometries": f"{len(bench.mds_codes)} scanned codes",
        "fourier.verify_dual_s": f"{len(dual_pairs)} forged pairs, N <= {DUAL_MAX_N}",
        "trace.overhead_ratio": f"traced replay {replay_s:.3f} s / "
                                f"(wall_s - setup_s x commands) {cli_compute_s:.3f} s",
    })
    spans_path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "spans": [vars(s) for s in tracer.spans],
        "self_s": selfs,
    }) + "\n")
    info = {"spans": len(tracer.spans), "spans_file": spans_path.name}
    return metrics, bases, info
