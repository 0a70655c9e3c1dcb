"""Command-line front end.

Exit codes: 0 success, 2 domain rejection, 3 budget exceeded (or a search
bound hit without exhaustion), 4 input error, 5 defect (a theorem violation,
a failed identity, or a criterion that rejects a known isometry).
Every command prints a human-readable summary; ``--json`` switches to a
machine-readable report mirroring the library return values.

``main(argv)`` runs one command in-process and returns its exit code;
``entry()`` is the process entry of ``python -m modcode.cli`` and of the
``modcode`` script.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

# All arithmetic is exact int64 and never calls BLAS, so an OpenBLAS worker
# thread only competes with the command for the CPU.  This must run before
# numpy is imported; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .codes import (  # noqa: E402
    ModuleSpace,
    MonomialMap,
    Unextendable,
    extend_to_monomial,
    is_isometry_bruteforce,
)
from .errors import (  # noqa: E402
    DimensionMismatchError,
    EnumerationBudgetError,
    ModcodeError,
    NotAnIsometryError,
)
from .io import load_code, save_code  # noqa: E402
from .linalg import cauchy_identities_check, check_identities_budget, subspace_lattice  # noqa: E402

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4
EXIT_VIOLATION = 5

# Exception class -> exit code, first match wins.  ValueError covers bad
# command-line values (a non-prime q) and malformed code files.  check takes a
# NotAnIsometryError as its verdict; forge's pair is isometric by construction
# and every mds --scan image by brute force, so elsewhere it is a defect.
EXIT_CODES = (
    (EnumerationBudgetError, EXIT_BUDGET),
    (DimensionMismatchError, EXIT_INPUT),
    (ValueError, EXIT_INPUT),
    (NotAnIsometryError, EXIT_VIOLATION),
    (ModcodeError, EXIT_DOMAIN),
)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, indent=1))
    else:
        for key, value in report.items():
            if key == "command":
                continue
            print(f"{key}: {value}")


def _subspace_repr(S) -> list[list[int]]:
    return [[int(x) for x in row] for row in S.basis]


def _monomial_repr(mmap: MonomialMap) -> dict:
    return {
        "permutation": list(mmap.permutation),
        "automorphisms": [[[int(x) for x in row] for row in P] for P in mmap.automorphisms],
    }


def _diff_repr(diff: Unextendable) -> dict:
    return {
        "lambda_only": [[_subspace_repr(S), mult] for S, mult in diff.lambda_only],
        "mu_only": [[_subspace_repr(S), mult] for S, mult in diff.mu_only],
    }


def cmd_forge(q, m, k, out_lambda, out_mu, as_json) -> int:
    """Forge the minimum-length unextendable isometric pair (needs k > m)."""
    from .forge import counterexample_length, minimal_counterexample

    if os.path.realpath(out_lambda) == os.path.realpath(out_mu):
        raise ValueError(f"--out-lambda and --out-mu name one file: {out_mu}")
    start = time.perf_counter()
    lam, mu = minimal_counterexample(q, m, k)
    save_code(lam, out_lambda)
    save_code(mu, out_mu)
    # extend_to_monomial raises NotAnIsometryError when the criterion fails, so
    # a pair that reaches the report is isometric.
    extendable = not isinstance(extend_to_monomial(lam, mu), Unextendable)
    report = {
        "command": "forge",
        "N": counterexample_length(q, m),
        "length": lam.length,
        "isometry": True,
        "extendable": extendable,
        "lambda_file": str(out_lambda),
        "mu_file": str(out_mu),
        "seconds": round(time.perf_counter() - start, 3),
    }
    _emit(report, as_json)
    return EXIT_OK


def cmd_check(lambda_file, mu_file, oracle, as_json) -> int:
    """Check whether two code files are isometric and extendably so."""
    start = time.perf_counter()
    lam = load_code(lambda_file)
    mu = load_code(mu_file)
    report: dict = {"command": "check"}
    try:
        result = extend_to_monomial(lam, mu)
    except NotAnIsometryError:
        result = None
    report["isometry"] = result is not None
    if oracle:
        report["isometry_oracle"] = is_isometry_bruteforce(lam, mu)
    if result is None:
        report["extendable"] = "NA"
    elif isinstance(result, Unextendable):
        report["extendable"] = False
        report["kernel_diff"] = _diff_repr(result)
    else:
        report["extendable"] = True
        report["monomial_map"] = _monomial_repr(result)
    report["seconds"] = round(time.perf_counter() - start, 3)
    _emit(report, as_json)
    return EXIT_OK


def cmd_minlen(q, m, t, bound, cyclic_only, as_json) -> int:
    """Search the minimum length of a nontrivial solution."""
    from .forge import counterexample_length, min_nontrivial_length

    if t is None:
        t = m + 1
    if bound is None:
        # The incidence system's domain and row-budget checks run before N is
        # computed, so a huge m is refused at once; the search reuses the
        # cached lattice.  The system depends on m only through min(m, t), and
        # so does the default.
        ModuleSpace(q, m, t)
        subspace_lattice(q, t, min(m, t))
        bound = counterexample_length(q, min(m, t)) + 5
    start = time.perf_counter()
    result = min_nontrivial_length(q, m, t, bound, max_col_dim=m if cyclic_only else None)
    witness_summary = None
    if result.witness is not None:
        witness_summary = [
            [_subspace_repr(col), int(c)]
            for col, c in zip(result.system.cols, result.witness)
            if c != 0
        ]
    report = {
        "command": "minlen",
        "min_length": result.min_length,
        "exhausted": result.exhausted,
        "witness": witness_summary,
        "bound": bound,
        "seconds": round(time.perf_counter() - start, 3),
    }
    _emit(report, as_json)
    return EXIT_OK if result.exhausted else EXIT_BUDGET


def cmd_mds(code_file, scan, as_json) -> int:
    """MDS report for a code file, optionally with an exhaustive isometry scan."""
    from .mds import exhaustive_isometry_scan, is_mds, theorem_violations

    start = time.perf_counter()
    code = load_code(code_file)
    mds_report = is_mds(code)
    report = {
        "command": "mds",
        "n": mds_report.n,
        "d": mds_report.d,
        "kappa": mds_report.kappa,
        "is_mds": mds_report.is_mds,
        "witnesses": list(mds_report.witnesses) if mds_report.witnesses else None,
    }
    violation = False
    if scan:
        results = exhaustive_isometry_scan(code)
        report["isometries"] = len(results)
        report["unextendable"] = sum(1 for _, ok in results if not ok)
        if mds_report.is_mds and mds_report.kappa != 2:
            violation = bool(theorem_violations(code, [mu for mu, _ in results]))
            report["theorem_violations"] = int(violation)
    report["seconds"] = round(time.perf_counter() - start, 3)
    _emit(report, as_json)
    return EXIT_VIOLATION if violation else EXIT_OK


def cmd_identities(q, tmax, as_json) -> int:
    """Run the exact q-binomial identity suite for t = 1 .. tmax."""
    # ModuleSpace applies the int64 bound before its primality test, so trial
    # division of a huge q never starts.
    ModuleSpace(q, 1, 1)
    if tmax < 1:
        raise ValueError(f"need tmax >= 1, got {tmax}")
    check_identities_budget(tmax, q)
    results = {}
    all_pass = True
    for t in range(1, tmax + 1):
        ok = cauchy_identities_check(t, q)
        results[t] = ok
        all_pass = all_pass and ok
        if not as_json:
            print(f"t={t} q={q}: {'pass' if ok else 'FAIL'}")
    if as_json:
        _emit({"command": "identities", "q": q, "results": results, "all_pass": all_pass}, True)
    return EXIT_OK if all_pass else EXIT_VIOLATION


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcode",
        description="Isometry extension toolkit for codes over matrix-module alphabets.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, run):
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        sub.add_argument("--json", dest="as_json", action="store_true",
                         help="Emit a JSON report.")
        return sub

    sub = command("forge", cmd_forge)
    sub.add_argument("--q", type=int, required=True, help="Prime field modulus.")
    sub.add_argument("--m", type=int, required=True, help="Ring parameter (m x m matrices).")
    sub.add_argument("--k", type=int, required=True, help="Alphabet parameter (m x k matrices).")
    sub.add_argument("--out-lambda", required=True)
    sub.add_argument("--out-mu", required=True)

    sub = command("check", cmd_check)
    sub.add_argument("--lambda", dest="lambda_file", required=True)
    sub.add_argument("--mu", dest="mu_file", required=True)
    sub.add_argument("--oracle", action="store_true",
                     help="Also run the brute-force weight oracle.")

    sub = command("minlen", cmd_minlen)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--t", type=int, default=None, help="Ambient dimension; defaults to m + 1.")
    sub.add_argument("--bound", type=int, default=None,
                     help="Length bound; defaults to N + 5, with N taken at min(m, t).")
    sub.add_argument("--cyclic-only", action="store_true",
                     help="Restrict supports to dimension <= m.")

    sub = command("mds", cmd_mds)
    sub.add_argument("--code", dest="code_file", required=True)
    sub.add_argument("--scan", action="store_true",
                     help="Exhaustively scan all isometries of the code.")

    sub = command("identities", cmd_identities)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--tmax", type=int, required=True)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    An error of a class in EXIT_CODES is reported on stderr and mapped to its
    code; a usage error raises SystemExit(2) from argparse.
    """
    options = vars(_parser().parse_args(argv))
    del options["command"]
    run = options.pop("run")
    try:
        return run(**options)
    except (ModcodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def entry() -> None:
    """Process entry: exit with the command's code, skipping the exit-time collection.

    gc.freeze() moves every tracked object to the permanent generation, so
    the interpreter's final collection does not walk the command's objects.
    Unlike os._exit it keeps atexit handlers and stream flushes.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
