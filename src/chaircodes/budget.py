"""Enumeration budget handling.

Every potentially explosive enumeration (chair points, torus cells, grid
states, sublattice searches) is capped.  The default cap is 10**6 and can be
overridden with the CHAIRCODES_BUDGET environment variable or per call.
"""

from __future__ import annotations

import operator
import os

from .errors import BadParameters, BudgetExceeded

DEFAULT_BUDGET = 10**6
ENV_VAR = "CHAIRCODES_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Return the effective budget: explicit argument, else env var, else
    default.  A value that is not an integer >= 1 raises BadParameters
    naming its source."""
    source, value = ("budget", budget) if budget is not None else (
        ENV_VAR, os.environ.get(ENV_VAR, DEFAULT_BUDGET))
    try:
        limit = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise BadParameters(f"{source} must be an integer, got {value!r}") from None
    if limit < 1:
        raise BadParameters(f"{source} must be >= 1, got {limit}")
    return limit


def check_budget(count: int, budget: int | None, what: str) -> None:
    """Raise BudgetExceeded when count items would exceed the effective budget."""
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceeded(f"{what} needs {count} items, budget is {limit}")
