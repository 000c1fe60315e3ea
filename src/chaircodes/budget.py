"""Integer readers and enumeration budget handling.

as_int and parse_int are the package's only integer readers: every integer
argument, and every integer read from argv, the environment or a JSON file,
goes through one of them, so a bool, float or malformed string raises
BadParameters instead of being truncated.

Every potentially explosive enumeration (chair points, box searches, grid
states, sublattice searches) is capped.  The default cap is 10**6 and can be
overridden with the CHAIRCODES_BUDGET environment variable, or per call for
the sublattice search and the sphere enumeration it runs.
"""

from __future__ import annotations

import operator
import os
import re

from .errors import BadParameters, BudgetExceeded

DEFAULT_BUDGET = 10**6
ENV_VAR = "CHAIRCODES_BUDGET"


def as_int(x: object, what: str) -> int:
    """x through operator.index: a bool, float, string or other non-integer
    raises BadParameters naming what, rather than being truncated."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise BadParameters(f"{what} must be an integer, got {x!r}")


def parse_int(x: object, what: str) -> int:
    """An integer as it arrives from argv, the environment or JSON: text must
    be a plain decimal, -?[0-9]+; anything else is read by as_int."""
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    return as_int(x, what)


def resolve_budget(budget: int | str | None = None) -> int:
    """Return the effective budget: explicit argument, else env var, else
    default.  A value that is not an integer >= 1 raises BadParameters
    naming its source."""
    source, value = ("budget", budget) if budget is not None else (
        ENV_VAR, os.environ.get(ENV_VAR, DEFAULT_BUDGET))
    limit = parse_int(value, source)
    if limit < 1:
        raise BadParameters(f"{source} must be >= 1, got {limit}")
    return limit


def check_budget(count: int, budget: int | None, what: str) -> None:
    """Raise BudgetExceeded when count items would exceed the effective budget."""
    limit = resolve_budget(budget)
    if count > limit:
        raise BudgetExceeded(f"{what} needs {count} items, budget is {limit}")
