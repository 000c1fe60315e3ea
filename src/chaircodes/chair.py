"""The n-dimensional chair: a box with a smaller box removed from one corner.

A chair is an l_1 x ... x l_n box minus a k_1 x ... x k_n box cut out of the
corner farthest from the origin.  Side lengths are exact rationals; when all
of them are integers the shape is a union of unit cells of Z^n and can be
enumerated point by point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

from .budget import check_budget
from .errors import DimensionMismatch, InvalidChair, NotDiscrete

Scalar = int | Fraction
Point = tuple[Scalar, ...]


def as_exact(x: object) -> Scalar:
    """Coerce to int or Fraction; floats are rejected to keep arithmetic exact,
    and text must match -?[0-9]+(/[0-9]+)?, so no exponent builds a huge int."""
    if isinstance(x, bool):
        raise ValueError("booleans are not valid coordinates")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x):
            raise ValueError(f"expected a decimal integer or a fraction a/b, got {x!r}")
        try:
            f = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
        return int(f) if f.denominator == 1 else f
    raise ValueError(f"expected an exact integer or fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Chair:
    """Shape parameters: outer box sides and removed-box (notch) sides."""

    sides: tuple[Scalar, ...]
    notch: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        try:
            sides = tuple(as_exact(x) for x in self.sides)
            notch = tuple(as_exact(x) for x in self.notch)
        except ValueError as exc:
            raise InvalidChair(str(exc)) from None
        if len(sides) != len(notch):
            raise InvalidChair(f"sides has {len(sides)} entries, notch has {len(notch)}")
        if not sides:
            raise InvalidChair("chair needs at least one dimension")
        for i, (l, k) in enumerate(zip(sides, notch), start=1):
            if not (0 < k < l):
                raise InvalidChair(f"need 0 < k_{i} < l_{i}, got k={k}, l={l}")
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "notch", notch)

    @property
    def n(self) -> int:
        return len(self.sides)

    @property
    def is_discrete(self) -> bool:
        return all(isinstance(x, int) for x in self.sides + self.notch)

    def int_sides(self) -> tuple[int, ...]:
        if not self.is_discrete:
            raise NotDiscrete("chair has non-integer side lengths")
        return self.sides  # type: ignore[return-value]

    def int_notch(self) -> tuple[int, ...]:
        if not self.is_discrete:
            raise NotDiscrete("chair has non-integer side lengths")
        return self.notch  # type: ignore[return-value]

    def to_json_dict(self) -> dict:
        return {"L": [str(x) for x in self.sides], "K": [str(x) for x in self.notch]}


def volume(c: Chair) -> Scalar:
    """prod(l_i) - prod(k_i); for discrete chairs this counts the integer points."""
    return as_exact(math.prod(c.sides) - math.prod(c.notch))


def _check_dims(c: Chair, p: Sequence[Scalar]) -> None:
    if len(p) != c.n:
        raise DimensionMismatch(f"point has {len(p)} coordinates, chair is {c.n}-dimensional")


def contains(c: Chair, p: Sequence[Scalar]) -> bool:
    """Whether p lies in the chair anchored at the origin."""
    _check_dims(c, p)
    if not all(0 <= x < l for x, l in zip(p, c.sides)):
        return False
    return any(x < l - k for x, l, k in zip(p, c.sides, c.notch))


def enumerate_points(c: Chair) -> list[tuple[int, ...]]:
    """All integer points of a discrete chair in lexicographic order.

    The chair is the disjoint union of n boxes: box i holds the points whose
    first coordinate below its free side l_j - k_j is coordinate i."""
    if not c.is_discrete:
        raise NotDiscrete("only discrete chairs can be enumerated")
    check_budget(int(volume(c)), None, "chair enumeration")
    notched = [range(l - k, l) for l, k in zip(c.sides, c.notch)]
    free = [range(l - k) for l, k in zip(c.sides, c.notch)]
    full = [range(l) for l in c.sides]
    return sorted(chain.from_iterable(product(*notched[:i], free[i], *full[i + 1:]) for i in range(c.n)))


def shifted_copies_intersect(c: Chair, x: Sequence[Scalar]) -> bool:
    """Whether the chair and its copy shifted by x share a point.

    Closed-form criterion: all |x_i| < l_i, some x_j < l_j - k_j, and some
    x_r > -(l_r - k_r).  Holds verbatim for rational coordinates.
    """
    _check_dims(c, x)
    if not all(-l < xi < l for xi, l in zip(x, c.sides)):
        return False
    if not any(xi < l - k for xi, l, k in zip(x, c.sides, c.notch)):
        return False
    return any(xi > -(l - k) for xi, l, k in zip(x, c.sides, c.notch))
