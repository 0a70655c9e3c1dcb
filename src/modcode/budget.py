"""Enumeration budgets.

Every exhaustive loop in the package (vectors of a module, subspaces of an
ambient space) is guarded by an explicit budget.  Exceeding the budget raises
:class:`~modcode.errors.EnumerationBudgetError`; nothing is ever silently
truncated.  The environment variable ``MODCODE_BUDGET`` overrides both
defaults with a single integer.  A :func:`cached` enumeration charges its
count in its own body, once per miss of a cache keyed on that integer.
"""

from __future__ import annotations

import os
from functools import lru_cache, wraps

from .errors import EnumerationBudgetError

DEFAULT_SUBSPACE_BUDGET = 10**6
DEFAULT_VECTOR_BUDGET = 10**7
# Entries each cached function keeps over all budgets; one command uses far fewer.
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


def check_subspaces(count, what: str = "subspace enumeration", power=None) -> None:
    _charge(count, power, subspace_budget(), "subspaces", what)


def check_vectors(count, what: str = "vector enumeration", power=None) -> None:
    _charge(count, power, vector_budget(), "vectors", what)


def _charge(count, power, limit: int, unit: str, what: str) -> None:
    """Raise EnumerationBudgetError when the count exceeds the limit.

    With ``power = (q, e)`` the count is at least q^e and ``count`` is a
    function that returns it.  As q^e >= 2^(e (bit_length(q) - 1)), a count
    whose lower bound is over the limit is refused before it is built: an
    exact power with an exponent near 10^18 would never be done.
    """
    if power is not None:
        q, e = power
        bits = e * (q.bit_length() - 1)
        if bits >= limit.bit_length():
            raise EnumerationBudgetError(
                f"{what} needs at least 2^{bits} {unit}, budget is {limit}"
            )
        count = count()
    if count > limit:
        raise EnumerationBudgetError(
            f"{what} needs {_count_text(count)} {unit}, budget is {limit}"
        )


def cached(fn):
    """Cache a pure function that charges the budget in its body.

    The cache keeps the CACHE_ENTRIES most recently used results, keyed on
    the arguments and the ``MODCODE_BUDGET`` value.  A hit skips the body and
    so its charge, but only under the budget the result was built under; a
    call under another budget builds the result again and charges it.
    """

    @lru_cache(maxsize=CACHE_ENTRIES)
    def build(_budget, *args):
        return fn(*args)

    @wraps(fn)
    def lookup(*args):
        return build(_env_override(), *args)

    lookup.cache_clear = build.cache_clear
    lookup.cache_info = build.cache_info
    return lookup
