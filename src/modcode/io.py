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
from .linalg import check_prime


def code_to_dict(code: Code) -> dict:
    return {
        "q": code.alphabet.q,
        "m": code.alphabet.m,
        "k": code.alphabet.k,
        "t": code.space.t,
        "generators": [[[int(x) for x in row] for row in col.matrix] for col in code.columns],
    }


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def code_from_dict(data: dict) -> Code:
    try:
        q, m, k, t = (data[key] for key in ("q", "m", "k", "t"))
        generators = data["generators"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatchError(f"malformed code file: {exc}") from exc
    for key, value in zip("qmkt", (q, m, k, t)):
        if not _is_integer(value):
            raise DimensionMismatchError(f"{key} must be an integer, got {value!r}")
    check_prime(q)
    space = ModuleSpace(q, m, t)
    alphabet = Alphabet(q, m, k)
    columns = []
    for g in generators:
        G = np.asarray(g, dtype=object)
        if G.shape != (t, k):
            raise DimensionMismatchError(f"generator must be {t}x{k}, got {G.shape}")
        if not all(_is_integer(x) for x in G.flat):
            raise DimensionMismatchError("generator entries must be integers")
        if (G < 0).any() or (G >= q).any():
            raise DimensionMismatchError("generator entries must lie in [0, q)")
        columns.append(G.astype(np.int64))
    return Code(alphabet, space, columns)


def save_code(code: Code, path) -> None:
    Path(path).write_text(json.dumps(code_to_dict(code), indent=1) + "\n")


def load_code(path) -> Code:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DimensionMismatchError(f"cannot read code file {path}: {exc}") from exc
    return code_from_dict(data)
