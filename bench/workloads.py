"""The benchmark's command sets: generated inputs, commands and known verdicts.

Everything here is plain Python with no import of modcode, so the expected
answers are checked independently of the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Every command set the traced run replays.  The end-to-end workloads are a
# subset: minlen-search is replayed but not timed end to end, so that the
# timed workloads get long runs on a noisy shared host.
COMMAND_SETS = ("forge-ladder", "minlen-search", "mds-scan")
WORKLOADS = ("forge-ladder", "mds-scan")
# The brute-force oracle runs on rungs whose q^(m(m+1)) * N weights stay below this.
ORACLE_LIMIT = 2 * 10**6


def _code(q: int, m: int, k: int, t: int, generators) -> dict:
    return {"q": q, "m": m, "k": k, "t": t, "generators": generators}


def _parity(q: int) -> dict:
    """The [4,3] single-parity-check code over F_q: three unit columns and their sum."""
    units = [[[1 if r == c else 0] for r in range(3)] for c in range(3)]
    return _code(q, 1, 1, 3, units + [[[1], [1], [1]]])


@dataclass(frozen=True)
class Bench:
    """The case lists of the three command sets."""

    # forge-ladder: (q, m, k) rungs.
    ladder: tuple[tuple[int, int, int], ...]
    # minlen-search: ((q, m, t, bound), expected minimum length).
    minlen: tuple[tuple[tuple[int, int, int, int], int], ...]
    # mds-scan: (name, code file contents, expected `mds --scan --json` fields).
    mds_codes: tuple[tuple[str, dict, dict], ...]

    def smallest(self) -> "Bench":
        """The cheapest case of each command set."""
        return Bench(self.ladder[:1], self.minlen[1:2], self.mds_codes[:1])


FULL = Bench(
    ladder=((2, 2, 3), (3, 2, 3), (2, 3, 4), (5, 2, 3), (3, 3, 4)),
    minlen=(((2, 2, 3, 20), 15), ((2, 1, 3, 4), 3), ((5, 1, 2, 11), 6), ((3, 1, 3, 4), 4)),
    mds_codes=(
        ("rep2_3_1", _code(2, 1, 1, 1, [[[1]]] * 3),
         {"is_mds": True, "isometries": 1, "unextendable": 0, "theorem_violations": 0}),
        ("parity2_4_3", _parity(2),
         {"is_mds": True, "isometries": 24, "unextendable": 0, "theorem_violations": 0}),
        # The forged (q, m, k) = (2, 1, 2) lambda: two identity columns and a zero column.
        ("forged_2_1_2", _code(2, 1, 2, 2, [[[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]]),
         {"is_mds": False, "isometries": 270, "unextendable": 162}),
        ("parity3_4_3", _parity(3),
         {"is_mds": True, "isometries": 384, "unextendable": 0, "theorem_violations": 0}),
    ),
)


def counterexample_length(q: int, m: int) -> int:
    """N = prod_{i=1..m} (1 + q^i)."""
    n = 1
    for i in range(1, m + 1):
        n *= 1 + q**i
    return n


def gaussian_binomial(t: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^t."""
    num = den = 1
    for i in range(d):
        num *= q ** (t - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _rank(rows: list[list[int]], q: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * pow(rows[rank][c], -1, q)
            rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def monomial_image(code: dict, rng: random.Random) -> dict:
    """A column permutation plus one random invertible k x k automorphism per column.

    The image is isometric to the code with the same column kernels, so every
    verdict the benchmark checks is unchanged.
    """
    q, k = code["q"], code["k"]
    gens = code["generators"]
    perm = list(range(len(gens)))
    rng.shuffle(perm)
    image = []
    for src in perm:
        while True:
            P = [[rng.randrange(q) for _ in range(k)] for _ in range(k)]
            if _rank(P, q) == k:
                break
        image.append([[sum(a * b for a, b in zip(row, col)) % q for col in zip(*P)]
                      for row in gens[src]])
    return dict(code, generators=image)


def write_code(path: Path, code: dict) -> None:
    path.write_text(json.dumps(code) + "\n")


# ---------------------------------------------------------------- verdicts


def _is_rref(basis: list[list[int]]) -> bool:
    last = -1
    for r, row in enumerate(basis):
        nz = [c for c, x in enumerate(row) if x]
        if not nz or nz[0] <= last or row[nz[0]] != 1:
            return False
        last = nz[0]
        if any(other[last] for i, other in enumerate(basis) if i != r):
            return False
    return True


def forge_diff_problems(diff: dict, q: int, m: int) -> list[str]:
    """Check the kernel diff of a forged pair: every subspace of F_q^(m+1) once.

    Codimension j lies on the lambda side when j is even and on the mu side
    when it is odd, with multiplicity q^binom(j, 2).  So the only full-space
    kernel (the zero column) is on the lambda side.
    """
    t = m + 1
    problems = []
    seen: set = set()
    per_dim = dict.fromkeys(range(t + 1), 0)
    for side, parity in (("lambda_only", 0), ("mu_only", 1)):
        for basis, mult in diff[side]:
            d = len(basis)
            j = t - d
            key = tuple(map(tuple, basis))
            if (j % 2 != parity or mult != q ** (j * (j - 1) // 2) or key in seen
                    or any(len(row) != t for row in basis) or not _is_rref(basis)):
                problems.append(f"unexpected {side} entry {basis} x{mult}")
            seen.add(key)
            per_dim[d] = per_dim.get(d, 0) + 1
    for d, count in per_dim.items():
        if count != gaussian_binomial(t, d, q):
            problems.append(f"{count} kernel-diff subspaces of dim {d}")
    full = [mult for basis, mult in diff["lambda_only"] if len(basis) == t]
    if full != [1] or any(len(basis) == t for basis, _ in diff["mu_only"]):
        problems.append("the full-space kernel is not exactly one lambda column")
    return problems


def _zero_columns(code: dict) -> int:
    return sum(1 for G in code["generators"] if not any(map(any, G)))


# ---------------------------------------------------------------- commands


@dataclass
class Command:
    """One CLI invocation, the parameters a replay needs, and its verdict check.

    `verify` takes the command's --json report and returns a list of
    problems; `prepare` writes the command's generated input and is not timed.
    """

    name: str
    kind: str
    params: dict
    argv: list[str]
    verify: Callable[[dict], list[str]]
    prepare: Callable[[], None] | None = None


def forge_commands(bench: Bench, work: Path, rng: random.Random) -> list[Command]:
    cmds = []
    for q, m, k in bench.ladder:
        lam, mu, img = (work / f"{side}_{q}{m}{k}.json" for side in ("lam", "mu", "img"))
        N = counterexample_length(q, m)
        oracle = q ** (m * (m + 1)) * N <= ORACLE_LIMIT

        def verify_forge(rep, N=N, lam=lam, mu=mu):
            problems = []
            verdict = (rep.get("N"), rep.get("length"), rep.get("isometry"), rep.get("extendable"))
            if verdict != (N, N, True, False):
                problems.append(f"forge verdict (N, length, isometry, extendable) = {verdict}")
            for path, zeros in ((lam, 1), (mu, 0)):
                code = json.loads(path.read_text())
                if len(code["generators"]) != N or _zero_columns(code) != zeros:
                    problems.append(f"{path.name} does not have {N} columns, {zeros} of them zero")
            return problems

        def verify_check(rep, q=q, m=m, oracle=oracle):
            problems = []
            if rep.get("isometry") is not True or rep.get("extendable") is not False:
                problems.append(f"check verdict isometry={rep.get('isometry')} "
                                f"extendable={rep.get('extendable')}")
            if oracle and rep.get("isometry_oracle") is not True:
                problems.append("the brute-force oracle disagrees with the criterion")
            diff = rep.get("kernel_diff", {"lambda_only": [], "mu_only": []})
            return problems + forge_diff_problems(diff, q, m)

        def make_image(mu=mu, img=img, seed=rng.random()):
            write_code(img, monomial_image(json.loads(mu.read_text()), random.Random(seed)))

        cmds.append(Command(
            f"forge {q},{m},{k}", "forge", {"q": q, "m": m, "k": k, "lam": lam, "mu": mu},
            ["forge", "--q", str(q), "--m", str(m), "--k", str(k),
             "--out-lambda", str(lam), "--out-mu", str(mu), "--json"],
            verify_forge))
        cmds.append(Command(
            f"check {q},{m},{k}", "check", {"lam": lam, "mu": img, "oracle": oracle},
            ["check", "--lambda", str(lam), "--mu", str(img)]
            + (["--oracle"] if oracle else []) + ["--json"],
            verify_check, prepare=make_image))
    return cmds


def minlen_commands(bench: Bench) -> list[Command]:
    cmds = []
    for (q, m, t, bound), expected in bench.minlen:
        def verify(rep, expected=expected):
            coeffs = [c for _, c in rep.get("witness") or []]
            sides = (sum(c for c in coeffs if c > 0), -sum(c for c in coeffs if c < 0))
            verdict = (rep.get("min_length"), rep.get("exhausted"), sides)
            if verdict != (expected, True, (expected, expected)):
                return [f"minlen verdict (min_length, exhausted, witness sides) = {verdict}"]
            return []

        cmds.append(Command(
            f"minlen {q},{m},{t},{bound}", "minlen", {"q": q, "m": m, "t": t, "bound": bound},
            ["minlen", "--q", str(q), "--m", str(m), "--t", str(t), "--bound", str(bound),
             "--json"],
            verify))
    return cmds


def mds_commands(bench: Bench, work: Path, rng: random.Random) -> list[Command]:
    cmds = []
    for name, code, expected in bench.mds_codes:
        path = work / f"mds_{name}.json"
        write_code(path, monomial_image(code, random.Random(rng.random())))

        def verify(rep, expected=expected):
            got = {key: rep.get(key) for key in expected}
            return [] if got == expected else [f"mds verdict {got}, expected {expected}"]

        cmds.append(Command(f"mds {name}", "mds", {"code": path},
                            ["mds", "--code", str(path), "--scan", "--json"], verify))
    return cmds


def workload_commands(workload: str, bench: Bench, work: Path, seed: int) -> list[Command]:
    """The command set's sequence; its generated inputs depend only on `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "forge-ladder":
        return forge_commands(bench, work, rng)
    if workload == "minlen-search":
        return minlen_commands(bench)
    if workload == "mds-scan":
        return mds_commands(bench, work, rng)
    raise ValueError(f"unknown workload {workload!r}")
