"""Write-once-memory colorings derived from chair tilings.

Each state of an n-cell, q-level memory is a point of the grid [0,q)^n; its
color is the coset of the tiling lattice it falls in.  Raising cell levels
within the chair's reach from any state then always offers every color
exactly once, which is what a rewrite strategy needs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import IO, Sequence

from .budget import check_budget
from .chair import Chair, enumerate_points, iter_box, volume
from .errors import BadParameters, NotATiling
from .lattice import Lattice, Verdict


@dataclass(eq=False)
class Coloring:
    """Color of every grid state, row-major with the last coordinate fastest."""

    q: int
    n: int
    sigma: int
    colors: tuple[int, ...]
    lattice: Lattice
    chair: Chair

    def color_of(self, state: Sequence[int]) -> int:
        idx = 0
        for x in state:
            if not 0 <= x < self.q:
                raise BadParameters(f"state coordinate {x} outside [0, {self.q})")
            idx = idx * self.q + x
        return self.colors[idx]


def build_coloring(lat: Lattice, c: Chair, q: int, budget: int | None = None) -> Coloring:
    """Color the q x ... x q grid by coset; colors are indexed by the
    lexicographic rank of each coset's chair-point representative, so state 0
    always gets color 0.

    The label index is the tiling proof: the lattice's index equals the
    chair's volume and the chair's points have that many distinct labels, so
    every coset holds exactly one chair point.  Raises NotATiling otherwise.
    """
    if q < 1:
        raise BadParameters(f"need q >= 1, got {q}")
    vol = volume(c)
    if lat.volume != vol:
        raise NotATiling(f"lattice index {lat.volume} differs from chair volume {vol}")
    index = {lat.coset_label(p): i for i, p in enumerate(enumerate_points(c, budget))}
    if len(index) != vol:
        raise NotATiling(f"the chair's {vol} points fall in only {len(index)} cosets")
    check_budget(q**c.n, budget, "coloring grid")
    colors = tuple(index[lat.coset_label(p)] for p in iter_box([q] * c.n))
    return Coloring(q, c.n, len(index), colors, lat, c)


def check_write_guarantee(col: Coloring, c: Chair) -> Verdict:
    """Every reachable write target must see each color exactly once.

    For an anchor state p the reachable cells are p minus a chair point.  When
    q*e_i is a lattice vector for every axis the grid wraps cleanly and all
    q^n anchors are checked on the torus; otherwise only anchors whose whole
    reflected chair fits inside the grid are checked, and the verdict records
    how many that was.
    """
    reps = enumerate_points(c)
    sides = c.int_sides()
    q = col.q
    torus = col.lattice.wraps(q)
    anchors = 0
    if torus:
        for p in iter_box([q] * col.n):
            anchors += 1
            seen = {col.color_of(tuple((a - e) % q for a, e in zip(p, rp))) for rp in reps}
            if len(seen) != col.sigma:
                return Verdict.failed("anchor misses a color", p, mode="torus")
    else:
        if any(l > q for l in sides):
            return Verdict.passed(mode="interior", anchors=0)
        for p in iter_box([q] * col.n):
            if any(a < l - 1 for a, l in zip(p, sides)):
                continue
            anchors += 1
            seen = {col.color_of(tuple(a - e for a, e in zip(p, rp))) for rp in reps}
            if len(seen) != col.sigma:
                return Verdict.failed("anchor misses a color", p, mode="interior")
    return Verdict.passed(mode="torus" if torus else "interior", anchors=anchors)


def write_csv(col: Coloring, stream: IO[str]) -> int:
    """Rows "x1,...,xn,color", one per grid state, in grid order."""
    rows = 0
    for state, color in zip(iter_box([col.q] * col.n), col.colors):
        stream.write(",".join(str(x) for x in state) + f",{color}\n")
        rows += 1
    return rows


BINARY_MAGIC = b"WOMCOLR1"


def write_binary(col: Coloring, stream: IO[bytes]) -> int:
    """8-byte magic header, then one little-endian uint16 color per cell."""
    if col.sigma > 0xFFFF:
        raise BadParameters(f"{col.sigma} colors do not fit the 2-byte cell format")
    stream.write(BINARY_MAGIC)
    stream.write(struct.pack(f"<{len(col.colors)}H", *col.colors))
    return len(col.colors)
