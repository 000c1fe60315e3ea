"""Write-once-memory colorings derived from chair tilings.

Each state of an n-cell, q-level memory is a point of the grid [0,q)^n; its
color is the coset of the tiling lattice it falls in.  Raising cell levels
within the chair's reach from any state then always offers every color
exactly once, which is what a rewrite strategy needs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, product
from typing import IO, Iterator, Sequence

from .budget import as_int, check_budget
from .chair import Chair, enumerate_points, volume
from .errors import BadParameters, DimensionMismatch, NotATiling
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
        """The color of one state.  Refuses a state whose length is not n
        (DimensionMismatch), and a coordinate that is not an integer (a bool
        included) or lies outside [0, q) (BadParameters)."""
        if len(state) != self.n:
            raise DimensionMismatch(f"state has {len(state)} coordinates, grid is {self.n}-dimensional")
        idx = 0
        for x in state:
            x = as_int(x, "a state coordinate")
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
    The grid is built row by row.  Along a row the labels are g + x*label(e_n),
    g the label at x = 0, so the rows that share g are built once.
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
    s = lat.labeling()
    firsts = s.box_values([range(q)] * (c.n - 1))
    gs = list(zip(*firsts)) if firsts else [()] * q ** (c.n - 1)
    steps = [[x * r[-1] for x in range(q)] for r in s.residues]
    rows: dict[tuple[int, ...], list[int]] = {}
    for g in gs:
        if g not in rows:
            labels = zip(*[[(a + t) % d for t in st] for a, st, d in zip(g, steps, s.divisors)])
            rows[g] = [index[v] for v in list(labels) or [()] * q]
    return Coloring(q, c.n, len(index), tuple(chain.from_iterable(rows[g] for g in gs)), lat, c)


_BIT_TABLES = [bytes(48 | b >> j & 1 for b in range(256)) for j in range(8)]  # byte -> b"0"/b"1", bit j


class PaddedGrid:
    """The grid [0,q)^n as the bits of one int, the first cell in row-major
    order the most significant, so a mask shifted right by a chair point e's
    flat offset moves each cell p to p + e.  An anchor p sees the cells
    p - e.  With wrap, axis i is extended periodically by l_i - 1 cells below
    and every grid cell is an anchor; without, the cells with p_i >= l_i - 1
    are, and there are none when some l_i > q.  The chair is the union of the
    n boxes e < l with e_i < l_i - k_i, and offsets are linear in e, so the
    shifts by a box are a doubling dilation along each axis in turn.
    """

    def __init__(self, c: Chair, q: int, wrap: bool):
        sides, notch = c.int_sides(), c.int_notch()
        self.points = volume(c)
        check_budget(self.points, None, "chair enumeration")  # the cells an anchor sees
        self.q = q
        self.pads = [l - 1 if wrap else 0 for l in sides]
        self.dims = [q + pad for pad in self.pads]
        self.strides = [math.prod(self.dims[i + 1:]) for i in range(c.n)]
        self.boxes = [[min(1 << t, m - (1 << t)) * stride
                       for stride, m in zip(self.strides, sides[:i] + (l - k,) + sides[i + 1:])
                       for t in range((m - 1).bit_length())]
                      for i, (l, k) in enumerate(zip(sides, notch))]
        bits = b"1"
        for d, l in zip(reversed(self.dims), reversed(sides)):
            bits = b"0" * (len(bits) * (l - 1)) + bits * (d - l + 1)
        self.anchors = int(bits or b"0", 2)  # no anchors when the chair does not fit
        self.full = (1 << math.prod(self.dims)) - 1

    def masks(self, colors: Sequence[int], sigma: int) -> Iterator[int]:
        """The cells of each color 0..sigma-1 in the grid [0,q)^n of colors,
        row-major, extended periodically.  Cells are coded by color, any color
        outside [0, sigma) by sigma, and a code's cells are an AND of the bit
        planes of the codes or their complements."""
        width = sigma.bit_length()
        try:
            if width > 8:
                raise ValueError("codes take more than one byte")
            layers = [bytes(colors)]  # the tables below fold every byte >= sigma to sigma
        except ValueError:  # a color outside [0, 256), or sigma > 255
            codes = [v if 0 <= v < sigma else sigma for v in colors]
            layers = [bytes([code >> s & 255 for code in codes]) for s in range(0, width, 8)]
        for stride, pad in zip(reversed(self.strides), reversed(self.pads)):  # stride: later axes, extended
            size, copies = self.q * stride, -(-pad // self.q)
            cut = (copies * self.q - pad) * stride
            layers = [b"".join([(g[i:i + size] * (copies + 1))[cut:] for i in range(0, len(g), size)])
                      for g in layers]
        tables = [bits[:sigma] + bits[sigma:sigma + 1] * (256 - sigma) for bits in _BIT_TABLES]
        planes = [int(layers[j >> 3].translate(tables[j & 7]), 2) for j in range(width)]
        for code in range(sigma):
            cells = self.full
            for j, plane in enumerate(planes):
                cells &= plane if code >> j & 1 else self.full ^ plane
            yield cells

    def reach(self, mask: int) -> int:
        """The cells that see a cell of mask."""
        out = 0
        for shifts in self.boxes:
            box = mask
            for shift in shifts:
                box |= box >> shift
            out |= box
        return out

    def cell(self, mask: int) -> tuple[int, ...]:
        """Grid coordinates of the first cell of a nonzero mask."""
        flat = math.prod(self.dims) - mask.bit_length()
        return tuple(flat // s % d - pad for s, d, pad in zip(self.strides, self.dims, self.pads))


def check_write_guarantee(col: Coloring, c: Chair) -> Verdict:
    """Every reachable write target must see each color exactly once.

    For an anchor state p the reachable cells are p minus a chair point, and
    their colors must be 0..sigma-1, each once, so every anchor fails when
    sigma is not the chair's point count.  When q*e_i is a lattice vector for
    every axis the grid wraps cleanly and all q^n anchors are checked on the
    torus; otherwise only anchors whose whole reflected chair fits inside the
    grid are checked, and the verdict records how many that was.  A failure
    names the first bad anchor in grid order.  On a PaddedGrid, an anchor
    passes when it is in the reach of every color v < sigma: it sees sigma
    cells, so it then sees each color once and no other color.
    """
    if c.n != col.n:
        raise DimensionMismatch(f"coloring is {col.n}-dimensional, chair is {c.n}-dimensional")
    mode = "torus" if col.lattice.wraps(col.q) else "interior"
    grid = PaddedGrid(c, col.q, mode == "torus")
    ok = grid.anchors if col.sigma == grid.points else 0
    for cells in grid.masks(col.colors, col.sigma) if ok else ():
        ok &= grid.reach(cells)
    bad = grid.anchors ^ ok
    if bad:
        return Verdict.failed("anchor misses a color", grid.cell(bad), mode=mode)
    return Verdict.passed(mode=mode, anchors=grid.anchors.bit_count())


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
