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
from pathlib import Path

import numpy as np

from .codes import Alphabet, Code, ModuleSpace
from .errors import DimensionMismatchError


def code_to_dict(code: Code) -> dict:
    return {
        "q": code.alphabet.q,
        "m": code.alphabet.m,
        "k": code.alphabet.k,
        "t": code.space.t,
        "generators": [col.matrix.tolist() for col in code.columns],
    }


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
        kind = type(generators).__name__
        raise DimensionMismatchError(f"generators must be a list, got {kind}")
    # All generators in one object array: a ragged or over-nested list cannot
    # take the (n, t, k) shape, and one type pass rejects floats, bools,
    # strings and lists among the entries.
    G = np.array(generators, dtype=object)
    if G.ndim != 3 or G.shape[0] == 0 or G.shape[1:] != (t, k):
        raise DimensionMismatchError(f"generators must be a nonempty list of {t}x{k} matrices")
    if not set(map(type, G.flat)) <= {int}:
        raise DimensionMismatchError("generator entries must be integers")
    try:
        G = G.astype(np.int64)
    except OverflowError as exc:
        raise DimensionMismatchError("generator entries must lie in [0, q)") from exc
    if (G < 0).any() or (G >= q).any():
        raise DimensionMismatchError("generator entries must lie in [0, q)")
    return Code(alphabet, space, G)


def save_code(code: Code, path) -> None:
    """Write a code file with one generator matrix per line.

    The generator list is encoded in one call and then split into lines.
    Rows inside a matrix are separated by "], [", so "]], [[" occurs only
    between two generators (and "], [" between two empty ones when t = 0).
    """
    data = code_to_dict(code)
    between = "]], [[" if code.space.t else "], ["
    one_line = json.dumps(data.pop("generators"))[1:-1]
    generators = one_line.replace(between, between.replace(" ", "\n"))
    Path(path).write_text(json.dumps(data)[:-1] + f', "generators": [\n{generators}\n]}}\n')


def load_code(path) -> Code:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DimensionMismatchError(f"cannot read code file {path}: {exc}") from exc
    return code_from_dict(data)
