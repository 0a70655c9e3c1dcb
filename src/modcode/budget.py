"""Enumeration budgets.

Every exhaustive loop in the package (vectors of a module, subspaces of an
ambient space) is guarded by an explicit budget.  Exceeding the budget raises
:class:`~modcode.errors.EnumerationBudgetError`; nothing is ever silently
truncated.  The environment variable ``MODCODE_BUDGET`` overrides both
defaults with a single integer.
"""

from __future__ import annotations

import os
from functools import lru_cache, wraps

from .errors import EnumerationBudgetError

DEFAULT_SUBSPACE_BUDGET = 10**6
DEFAULT_VECTOR_BUDGET = 10**7
# Entries each checked_cache keeps; one CLI command uses far fewer keys per cache.
CACHE_ENTRIES = 32


def _env_override() -> int | None:
    raw = os.environ.get("MODCODE_BUDGET")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise EnumerationBudgetError(f"MODCODE_BUDGET is not an integer: {raw!r}") from exc
    if value <= 0:
        raise EnumerationBudgetError(f"MODCODE_BUDGET must be positive: {value}")
    return value


def subspace_budget() -> int:
    return _env_override() or DEFAULT_SUBSPACE_BUDGET


def vector_budget() -> int:
    return _env_override() or DEFAULT_VECTOR_BUDGET


def _count_text(count: int) -> str:
    """A count for an error message: in decimal, or by bit length when it is huge.

    Python refuses to print an int of more than 4300 decimal digits, and a
    budget error must never fail while it is being raised.
    """
    if count.bit_length() <= 256:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


def check_subspaces(count: int, what: str = "subspace enumeration") -> None:
    limit = subspace_budget()
    if count > limit:
        raise EnumerationBudgetError(
            f"{what} needs {_count_text(count)} subspaces, budget is {limit}"
        )


def check_vectors(count: int, what: str = "vector enumeration") -> None:
    limit = vector_budget()
    if count > limit:
        raise EnumerationBudgetError(
            f"{what} needs {_count_text(count)} vectors, budget is {limit}"
        )


def checked_cache(check):
    """Cache a pure function, running ``check(*args)`` on every call.

    The cache keeps the CACHE_ENTRIES most recently used results.  A plain
    ``lru_cache`` skips the function body on a hit, so a budget check inside
    it would miss a lower ``MODCODE_BUDGET`` set after the first call.
    """

    def decorate(fn):
        cached = lru_cache(maxsize=CACHE_ENTRIES)(fn)

        @wraps(fn)
        def checked(*args, **kwargs):
            check(*args, **kwargs)
            return cached(*args, **kwargs)

        checked.cache_clear = cached.cache_clear
        checked.cache_info = cached.cache_info
        return checked

    return decorate
