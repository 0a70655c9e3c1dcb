"""JSON serialization of codes.

A code file is a JSON object with integer fields q, m, k, t and a list of
t x k generator matrices (row-major nested lists, entries in [0, q)).  Every
number must be a JSON integer; fractions and booleans are rejected, never
truncated:

    {"q": 2, "m": 1, "k": 2, "t": 2,
     "generators": [[[0, 0], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]]}
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

from .codes import Alphabet, Code, ModuleSpace
from .errors import DimensionMismatchError


def code_from_dict(data: dict) -> Code:
    try:
        q, m, k, t = (data[key] for key in ("q", "m", "k", "t"))
        generators = data["generators"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatchError(f"malformed code file: {exc}") from exc
    for key, value in zip("qmkt", (q, m, k, t)):
        if type(value) is not int:
            raise DimensionMismatchError(f"{key} must be an integer, got {value!r}")
    space = ModuleSpace(q, m, t)
    alphabet = Alphabet(q, m, k)
    if not isinstance(generators, list):
        raise DimensionMismatchError(f"generators must be a list, not {type(generators).__name__}")
    # Each check is one pass in C over the generators, rows or entries.
    shape = f"generators must be a nonempty list of {t}x{k} matrices"
    if not generators or {*map(type, generators)} != {list} or {*map(len, generators)} != {t}:
        raise DimensionMismatchError(shape)
    rows = list(chain.from_iterable(generators))
    if rows and ({*map(type, rows)} != {list} or {*map(len, rows)} != {k}):
        raise DimensionMismatchError(shape)
    if {*map(type, chain.from_iterable(rows))} - {int}:
        raise DimensionMismatchError("generator entries must be integers")
    rows = list(map(tuple, rows))
    if any(not 0 <= x < q for row in set(rows) for x in row):
        raise DimensionMismatchError("generator entries must lie in [0, q)")
    # The entries are canonical now: each t consecutive rows are one generator.
    G = tuple(zip(*[iter(rows)] * t)) if t else ((),) * len(generators)
    return Code._unchecked(alphabet, space, G)


def save_code(code: Code, path) -> None:
    """Write a code file with one generator matrix per line.

    Each distinct generator is encoded once, and a forged code repeats few
    generators many times (132 distinct among 1,120 at (q, m, k) = (3, 3, 4)).
    """
    encoded = {G: json.dumps(G) for G in set(code.generators)}
    generators = ",\n".join([encoded[G] for G in code.generators])
    a, sp = code.alphabet, code.space
    text = (f'{{"q": {a.q}, "m": {a.m}, "k": {a.k}, "t": {sp.t}, '
            f'"generators": [\n{generators}\n]}}\n')
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise DimensionMismatchError(f"cannot write code file {path}: {exc}") from exc


def load_code(path) -> Code:
    try:
        # A list nested past the recursion limit stops json.loads with a RecursionError.
        data = json.loads(Path(path).read_text())
    except (OSError, RecursionError, json.JSONDecodeError) as exc:
        raise DimensionMismatchError(f"cannot read code file {path}: {exc}") from exc
    return code_from_dict(data)
