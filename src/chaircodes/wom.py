"""Write-once-memory colorings derived from chair tilings.

Each state of an n-cell, q-level memory is a point of the grid [0,q)^n; its
color is the coset of the tiling lattice it falls in.  Raising cell levels
within the chair's reach from any state then always offers every color
exactly once, which is what a rewrite strategy needs.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from itertools import chain, product, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

from .budget import as_int, check_budget
from .chair import Chair, enumerate_points, volume
from .errors import BadParameters, NotATiling
from .lattice import Lattice, SplittingSequence, Verdict


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


def build_coloring(lat: Lattice, c: Chair, q: int) -> Coloring:
    """Color the q x ... x q grid by coset; colors are indexed by the
    lexicographic rank of each coset's chair-point representative, so state 0
    always gets color 0.

    The label index is the tiling proof: the lattice's index equals the
    chair's volume and the chair's points have that many distinct labels, so
    every coset holds exactly one chair point.  Raises NotATiling otherwise.
    """
    q = as_int(q, "q")
    if q < 1:
        raise BadParameters(f"need q >= 1, got {q}")
    vol = volume(c)
    if lat.volume != vol:
        raise NotATiling(f"lattice index {lat.volume} differs from chair volume {vol}")
    index = {lat.coset_label(p): i for i, p in enumerate(enumerate_points(c))}
    if len(index) != vol:
        raise NotATiling(f"the chair's {vol} points fall in only {len(index)} cosets")
    check_budget(q**c.n, None, "coloring grid")
    rows = _grid_rows(lat.labeling(), [range(q)] * c.n, lambda gs: [index[g] for g in gs])
    return Coloring(q, c.n, len(index), tuple(chain.from_iterable(rows)), lat, c)


def _grid_rows(s: SplittingSequence, ranges: Sequence[range],
               row: Callable[[list[tuple[int, ...]]], object]) -> list:
    """row(the values of a row's cells) for each row of the grid
    product(*ranges), in order.  Along a row the values are g + x*value(e_n),
    g the value at x = 0, so the rows that share g share one call."""
    firsts = s.box_values(ranges[:-1])
    gs = list(zip(*firsts)) if firsts else [()] * math.prod(map(len, ranges[:-1]))
    steps = [[x * r[-1] for x in ranges[-1]] for r in s.residues]
    rows: dict[tuple[int, ...], object] = {}
    for g in gs:
        if g not in rows:
            values = zip(*[[(a + t) % d for t in st] for a, st, d in zip(g, steps, s.divisors)])
            rows[g] = row(list(values) or [()] * len(ranges[-1]))
    return [rows[g] for g in gs]


class PaddedGrid:
    """The grid [0,q)^n as the bits of one int, the first cell in row-major
    order the most significant, so a mask shifted right by a chair point e's
    flat offset moves each cell p to p + e.  An anchor p sees the cells
    p - e.  With wrap, axis i is extended periodically by l_i - 1 cells below
    and every grid cell is an anchor; without, the cells with p_i >= l_i - 1
    are, and there are none when some l_i > q.
    """

    def __init__(self, c: Chair, q: int, wrap: bool):
        sides = c.int_sides()
        self.q = q
        self.pads = [l - 1 if wrap else 0 for l in sides]
        self.dims = [q + pad for pad in self.pads]
        self.strides = [math.prod(self.dims[i + 1:]) for i in range(c.n)]
        self.offsets = [sum(map(operator.mul, e, self.strides)) for e in enumerate_points(c)]
        bits = b"1"
        for d, l in zip(reversed(self.dims), reversed(sides)):
            bits = b"0" * (len(bits) * (l - 1)) + bits * (d - l + 1)
        self.anchors = int(bits or b"0", 2)  # no anchors when the chair does not fit

    def masks(self, grid: bytes, codes: Iterable[int]) -> Iterator[int]:
        """The cells holding each code in a byte per cell of [0,q)^n,
        row-major, once the grid is extended periodically."""
        for stride, pad in zip(reversed(self.strides), reversed(self.pads)):  # stride: later axes, extended
            width, copies = self.q * stride, -(-pad // self.q)
            cut = (copies * self.q - pad) * stride
            grid = b"".join([(grid[i:i + width] * (copies + 1))[cut:] for i in range(0, len(grid), width)])
        for code in codes:
            yield int(grid.translate(b"0" * code + b"1" + b"0" * (255 - code)), 2)

    def reach(self, mask: int) -> int:
        """The cells that see a cell of mask."""
        out = 0
        for off in self.offsets:
            out |= mask >> off
        return out

    def misses(self, masks: Iterable[int], target: int) -> int:
        """Sum 0/1 masks in a bit-sliced counter, bit j of each cell's count in
        planes[j]; return the anchors whose count is not target."""
        planes: list[int] = []
        for carry in masks:
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
            if carry:
                planes.append(carry)
        exact = self.anchors if target < 1 << len(planes) else 0
        for j, plane in enumerate(planes):
            exact &= plane if target >> j & 1 else ~plane
        return self.anchors ^ exact

    def cell(self, mask: int) -> tuple[int, ...]:
        """Grid coordinates of the first cell of a nonzero mask."""
        flat = math.prod(self.dims) - mask.bit_length()
        return tuple(flat // s % d - pad for s, d, pad in zip(self.strides, self.dims, self.pads))


def check_write_guarantee(col: Coloring, c: Chair) -> Verdict:
    """Every reachable write target must see each color exactly once.

    For an anchor state p the reachable cells are p minus a chair point, and
    their colors must be exactly 0..sigma-1.  When q*e_i is a lattice vector
    for every axis the grid wraps cleanly and all q^n anchors are checked on
    the torus; otherwise only anchors whose whole reflected chair fits inside
    the grid are checked, and the verdict records how many that was.  A
    failure names the first bad anchor in grid order.

    The check is bit-parallel on a PaddedGrid: the anchors that see a color
    are the reach of its cells.  Those masks are summed, one color of
    0..sigma-1 at a time, in a bit-sliced counter; an anchor passes when its
    count is sigma and it sees no cell of any other color.
    """
    torus = col.lattice.wraps(col.q)
    mode = "torus" if torus else "interior"
    grid = PaddedGrid(c, col.q, torus)
    values = sorted(set(col.colors))
    groups = [[v for v in values if not 0 <= v < col.sigma]] + [[v] for v in values if 0 <= v < col.sigma]
    masks = _group_masks(col.colors, groups, grid)
    foreign = grid.anchors & grid.reach(next(masks))
    bad = grid.misses(map(grid.reach, masks), col.sigma)
    if bad | foreign:
        return Verdict.failed("anchor misses a color", grid.cell(bad | foreign), mode=mode)
    return Verdict.passed(mode=mode, anchors=grid.anchors.bit_count())


def _group_masks(colors: Sequence[int], groups: list[list[int]], grid: PaddedGrid) -> Iterator[int]:
    """For each group of colors, the mask of the cells whose color is in it.
    Colors are coded as bytes, at most 255 groups per pass with 255 for any
    other color."""
    for start in range(0, len(groups), 255):
        block = groups[start:start + 255]
        code = {v: i for i, group in enumerate(block) for v in group}
        yield from grid.masks(bytes(map(code.get, colors, repeat(255))), range(len(block)))


def write_csv(col: Coloring, stream: IO[str]) -> int:
    """Rows "x1,...,xn,color", one per grid state, in grid order."""
    rows = 0
    for state, color in zip(product(range(col.q), repeat=col.n), col.colors):
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
