"""The n-dimensional chair: a box with a smaller box removed from one corner.

A chair is an l_1 x ... x l_n box minus a k_1 x ... x k_n box cut out of the
corner farthest from the origin.  Side lengths are exact rationals; when all
of them are integers the shape is a union of unit cells of Z^n and can be
enumerated point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .budget import check_budget
from .errors import DimensionMismatch, InvalidChair, NotDiscrete

Scalar = int | Fraction
Point = tuple[Scalar, ...]


def as_exact(x: object) -> Scalar:
    """Coerce to int or Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(x, bool):
        raise ValueError("booleans are not valid coordinates")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, str):
        f = Fraction(x)
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
        except (ValueError, ZeroDivisionError) as exc:
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

    @classmethod
    def from_json_dict(cls, data: dict) -> Chair:
        return cls(tuple(data["L"]), tuple(data["K"]))


def volume(c: Chair) -> Scalar:
    """prod(l_i) - prod(k_i); for discrete chairs this counts the integer points."""
    lprod: Scalar = 1
    kprod: Scalar = 1
    for l, k in zip(c.sides, c.notch):
        lprod *= l
        kprod *= k
    return as_exact(lprod - kprod)


def _check_dims(c: Chair, p: Sequence[Scalar]) -> None:
    if len(p) != c.n:
        raise DimensionMismatch(f"point has {len(p)} coordinates, chair is {c.n}-dimensional")


def contains(c: Chair, p: Sequence[Scalar]) -> bool:
    """Whether p lies in the chair anchored at the origin."""
    _check_dims(c, p)
    if not all(0 <= x < l for x, l in zip(p, c.sides)):
        return False
    return any(x < l - k for x, l, k in zip(p, c.sides, c.notch))


def enumerate_points(c: Chair, budget: int | None = None) -> list[tuple[int, ...]]:
    """All integer points of a discrete chair in lexicographic order."""
    if not c.is_discrete:
        raise NotDiscrete("only discrete chairs can be enumerated")
    check_budget(int(volume(c)), budget, "chair enumeration")
    sides = c.int_sides()
    notch = c.int_notch()
    n = c.n
    out: list[tuple[int, ...]] = []
    point = [0] * n

    def rec(i: int, satisfied: bool) -> None:
        if i == n:
            out.append(tuple(point))
            return
        free = sides[i] - notch[i]
        # once every later coordinate would have to stay in the notch range,
        # restrict the last coordinate so only genuine chair points are built
        top = sides[i] if (satisfied or i < n - 1) else free
        for x in range(top):
            point[i] = x
            rec(i + 1, satisfied or x < free)

    rec(0, False)
    return out


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
