"""Command-line front end.

Exit codes: 0 success, 2 domain rejection or usage error, 3 budget exceeded
(or a search bound hit without exhaustion), 4 input error, 5 defect (a
theorem violation, a failed identity, or a criterion that rejects a known
isometry).  Each ``cmd_*`` returns its exit code and its facts; it reads no
clock and prints nothing.  ``main`` alone times the call and prints the
report (``"command"``, the facts, ``"seconds"``) as ``key: value`` lines
without the command or, with ``--json``, as one JSON object, every count
exact.  A report prints whatever the exit code; a command that raises
prints none.

``main(argv)`` runs one command in-process and returns its exit code;
``entry()`` is the process entry of ``python -m modcode.cli`` and of the
``modcode`` script.  The command line is read against the ``COMMANDS``
table alone.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

from .codes import (
    ModuleSpace,
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
from .linalg import cauchy_identities_check, check_identities_budget, check_prime

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INPUT = 4
EXIT_VIOLATION = 5

# Exception class -> exit code, first match wins.  ValueError covers bad
# command-line values (a non-prime q) and malformed code files.  check takes a
# NotAnIsometryError as its verdict; forge's pair is isometric by construction
# and so is every class the mds --scan census counts, so elsewhere it is a defect.
EXIT_CODES = (
    (EnumerationBudgetError, EXIT_BUDGET),
    (DimensionMismatchError, EXIT_INPUT),
    (ValueError, EXIT_INPUT),
    (NotAnIsometryError, EXIT_VIOLATION),
    (ModcodeError, EXIT_DOMAIN),
)


def _emit(report: dict, as_json: bool) -> None:
    """Print a report as one JSON object, or as ``key: value`` lines without its command.

    A census count can have more digits than CPython's int-to-str limit
    allows (from 3.10.7; older interpreters have no limit), so the limit is
    lifted while the report prints and the caller's is restored after.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if as_json:
            print(json.dumps(report))
        else:
            for key, value in report.items():
                if key != "command":
                    print(f"{key}: {value}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _counts_repr(pairs) -> list:
    """Subspace-count pairs as [[basis rows, count], ...], in Subspace.sort_key order."""
    pairs = sorted(pairs, key=lambda pair: pair[0].sort_key())
    return [[[list(row) for row in S.basis], count] for S, count in pairs]


def cmd_forge(q, m, k, out_lambda, out_mu) -> tuple[int, dict]:
    """Forge the minimum-length unextendable isometric pair (needs k > m)."""
    from .forge import counterexample_length, minimal_counterexample

    if os.path.realpath(out_lambda) == os.path.realpath(out_mu):
        raise ValueError(f"--out-lambda and --out-mu name one file: {out_mu}")
    lam, mu = minimal_counterexample(q, m, k)
    save_code(lam, out_lambda)
    save_code(mu, out_mu)
    # extend_to_monomial raises NotAnIsometryError when the criterion fails, so
    # a pair that reaches the report is isometric.
    extendable = not isinstance(extend_to_monomial(lam, mu), Unextendable)
    return EXIT_OK, {
        "N": counterexample_length(q, m),
        "length": lam.length,
        "isometry": True,
        "extendable": extendable,
        "lambda_file": str(out_lambda),
        "mu_file": str(out_mu),
    }


def cmd_check(lambda_file, mu_file, oracle) -> tuple[int, dict]:
    """Check whether two code files are isometric and extendably so."""
    lam = load_code(lambda_file)
    mu = load_code(mu_file)
    try:
        result = extend_to_monomial(lam, mu)
    except NotAnIsometryError:
        result = None
    report = {"isometry": result is not None}
    if oracle:
        report["isometry_oracle"] = is_isometry_bruteforce(lam, mu)
    if result is None:
        report["extendable"] = "NA"
    elif isinstance(result, Unextendable):
        report["extendable"] = False
        report["kernel_diff"] = {"lambda_only": _counts_repr(result.lambda_only),
                                 "mu_only": _counts_repr(result.mu_only)}
    else:
        report["extendable"] = True
        report["monomial_map"] = {
            "permutation": list(result.permutation),
            "automorphisms": [[list(row) for row in P] for P in result.automorphisms],
        }
    return EXIT_OK, report


def cmd_minlen(q, m, t, bound, cyclic_only) -> tuple[int, dict]:
    """Search the minimum length of a nontrivial solution."""
    from .forge import counterexample_length, min_nontrivial_length

    if t is None:
        t = m + 1
    if bound is None:
        # The incidence system's domain and row-budget checks run before N is
        # computed, so a huge m is refused at once; the search reuses the
        # cached lattice.  The system depends on m only through min(m, t), and
        # so does the default.
        ModuleSpace(q, m, t).lattice
        bound = counterexample_length(q, min(m, t)) + 5
    result = min_nontrivial_length(q, m, t, bound, max_col_dim=m if cyclic_only else None)
    witness = None
    if result.witness is not None:
        witness = _counts_repr((col, c) for col, c in zip(result.system.cols, result.witness) if c)
    return EXIT_OK if result.exhausted else EXIT_BUDGET, {
        "min_length": result.min_length,
        "exhausted": result.exhausted,
        "witness": witness,
        "bound": bound,
    }


def cmd_mds(code_file, scan) -> tuple[int, dict]:
    """MDS report for a code file, optionally with an exact census of its isometries."""
    from .mds import is_mds, isometry_census

    code = load_code(code_file)
    mds_report = is_mds(code)
    report = {
        "n": mds_report.n,
        "d": mds_report.d,
        "kappa": mds_report.kappa,
        "is_mds": mds_report.is_mds,
        "witnesses": list(mds_report.witnesses) if mds_report.witnesses else None,
    }
    violation = False
    if scan:
        census = isometry_census(code)
        report["isometries"] = census.isometries
        report["unextendable"] = census.unextendable
        if mds_report.is_mds and mds_report.kappa != 2:
            # An image extends iff it has the code's own kernel multiset.
            violation = census.unextendable > 0
            report["theorem_violations"] = int(violation)
    return EXIT_VIOLATION if violation else EXIT_OK, report


def cmd_identities(q, tmax) -> tuple[int, dict]:
    """Run the exact q-binomial identity suite for t = 1 .. tmax."""
    check_prime(q)
    if tmax < 1:
        raise ValueError(f"need tmax >= 1, got {tmax}")
    check_identities_budget(tmax, q)
    results = {t: cauchy_identities_check(t, q) for t in range(1, tmax + 1)}
    report = {"q": q, "results": results, "all_pass": all(results.values())}
    return EXIT_OK if report["all_pass"] else EXIT_VIOLATION, report


REQUIRED = object()  # the default of an option that must be given
HELP = ("-h", "--help")

# Each command's function and options.  An option is (flag, dest, kind,
# default, help): kind is int, str or bool, and a bool option is a flag that
# takes no value and defaults to False.
JSON = ("--json", "as_json", bool, False, "Emit a JSON report.")
COMMANDS = {
    "forge": (cmd_forge, (
        ("--q", "q", int, REQUIRED, "Prime field modulus."),
        ("--m", "m", int, REQUIRED, "Ring parameter (m x m matrices)."),
        ("--k", "k", int, REQUIRED, "Alphabet parameter (m x k matrices); needs k > m."),
        ("--out-lambda", "out_lambda", str, REQUIRED, "Code file to write lambda to."),
        ("--out-mu", "out_mu", str, REQUIRED, "Code file to write mu to."),
        JSON,
    )),
    "check": (cmd_check, (
        ("--lambda", "lambda_file", str, REQUIRED, "Code file of lambda."),
        ("--mu", "mu_file", str, REQUIRED, "Code file of mu."),
        ("--oracle", "oracle", bool, False, "Also run the brute-force weight oracle."),
        JSON,
    )),
    "minlen": (cmd_minlen, (
        ("--q", "q", int, REQUIRED, "Prime field modulus."),
        ("--m", "m", int, REQUIRED, "Ring parameter (m x m matrices)."),
        ("--t", "t", int, None, "Ambient dimension; defaults to m + 1."),
        ("--bound", "bound", int, None,
         "Length bound; defaults to N + 5, with N taken at min(m, t)."),
        ("--cyclic-only", "cyclic_only", bool, False, "Restrict supports to dimension <= m."),
        JSON,
    )),
    "mds": (cmd_mds, (
        ("--code", "code_file", str, REQUIRED, "Code file to report on."),
        ("--scan", "scan", bool, False, "Count every isometry of the code by kernel multiset."),
        JSON,
    )),
    "identities": (cmd_identities, (
        ("--q", "q", int, REQUIRED, "Prime field modulus."),
        ("--tmax", "tmax", int, REQUIRED, "Largest dimension t to check."),
        JSON,
    )),
}


class UsageError(Exception):
    """A command line that the table does not accept; ``command`` is None at the top level."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


def _form(flag: str, kind) -> str:
    """How an option is written: a flag alone, any other option with its value."""
    return flag if kind is bool else f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(command) -> str:
    if command is None:
        return "usage: modcode [-h] COMMAND ..."
    words = [_form(flag, kind) if default is REQUIRED else f"[{_form(flag, kind)}]"
             for flag, _, kind, default, _ in COMMANDS[command][1]]
    return f"usage: modcode {command} [-h] " + " ".join(words)


def _help(command) -> str:
    """The usage, the description and one line per command or option."""
    if command is None:
        description = "Isometry extension toolkit for codes over matrix-module alphabets."
        heading = "commands"
        rows = [(name, run.__doc__) for name, (run, _) in COMMANDS.items()]
        footer = "\n\nRun 'modcode COMMAND --help' for the options of a command."
    else:
        run, options = COMMANDS[command]
        description, heading, footer = run.__doc__, "options", ""
        rows = [("-h, --help", "Show this help and exit.")]
        rows += [(_form(flag, kind), text) for flag, _, kind, _, text in options]
    width = max(len(left) for left, _ in rows) + 2
    lines = "\n".join(f"  {left:{width}}{text}" for left, text in rows)
    return f"{_usage(command)}\n\n{description}\n\n{heading}:\n{lines}{footer}"


def _parse(argv: list[str]):
    """The command named by argv and its keyword arguments.

    Options are given as ``--opt value`` or ``--opt=value``, by their exact
    names, and the last of a repeated option wins.  A value that starts with
    "-" must be a negative number or "-" itself.  Returns (command, None)
    when -h or --help asks for help, with command None at the top level, and
    raises UsageError for any argument the table does not accept.
    """
    if not argv:
        raise UsageError(None, "the following arguments are required: COMMAND")
    command, *args = argv
    if command in HELP:
        return None, None
    if command not in COMMANDS:
        if command.startswith("-"):
            raise UsageError(None, f"options go after the command: {command}")
        raise UsageError(None, f"argument COMMAND: invalid choice: {command!r} "
                               f"(choose from {', '.join(COMMANDS)})")
    if any(arg in HELP for arg in args):
        return command, None
    options = COMMANDS[command][1]
    by_flag = {option[0]: option for option in options}
    values = {}
    args = iter(args)
    for arg in args:
        flag, given, value = arg.partition("=")
        if not flag.startswith("--") or flag not in by_flag:
            raise UsageError(command, f"unrecognized arguments: {arg}")
        _, dest, kind, _, _ = by_flag[flag]
        if kind is bool:
            if given:
                raise UsageError(command, f"argument {flag}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if not given:
            value = next(args, None)
            if value is None or value.startswith("-") and value != "-" and not value[1:].isdigit():
                raise UsageError(command, f"argument {flag}: expected one argument")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                message = f"argument {flag}: invalid int value: {value!r}"
                raise UsageError(command, message) from None
        values[dest] = value
    missing = [flag for flag, dest, _, default, _ in options
               if default is REQUIRED and dest not in values]
    if missing:
        raise UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return command, {dest: values.get(dest, default) for _, dest, _, default, _ in options}


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A usage error prints the usage and the error on stderr and returns 2,
    and -h or --help prints the help and returns 0.  An error of a class in
    EXIT_CODES is reported on stderr and mapped to its code.
    """
    try:
        command, options = _parse(sys.argv[1:] if argv is None else [*argv])
    except UsageError as exc:
        print(_usage(exc.command), f"modcode: error: {exc}", sep="\n", file=sys.stderr)
        return EXIT_USAGE
    if options is None:
        print(_help(command))
        return EXIT_OK
    as_json = options.pop("as_json")
    start = time.perf_counter()
    try:
        code, facts = COMMANDS[command][0](**options)
    except (ModcodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    _emit({"command": command, **facts, "seconds": round(time.perf_counter() - start, 3)}, as_json)
    return code


def entry() -> None:
    """Process entry: exit with the command's code, skipping the exit-time collection.

    gc.freeze() moves every tracked object to the permanent generation, so
    the interpreter's final collection does not walk the command's objects.
    Unlike os._exit it keeps atexit handlers and stream flushes.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
