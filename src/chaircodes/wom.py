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
from itertools import product
from typing import IO, Iterator, Sequence

from .budget import check_budget
from .chair import Chair, enumerate_points, volume
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
    # the grid row at prefix x' holds the cosets g + k*lambda(e_n), g the label
    # of (x', 0): one row per coset, shared by every prefix in that coset
    lab = lat.labeling()
    step = [row[-1] for row in lab.residues]
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    colors: list[int] = []
    for prefix in product(range(q), repeat=c.n - 1):
        g = lab.value(prefix + (0,))
        row = rows.get(g)
        if row is None:
            row = rows[g] = tuple(
                index[tuple([(a + k * s) % d for a, s, d in zip(g, step, lab.divisors)])]
                for k in range(q))
        colors += row
    return Coloring(q, c.n, len(index), tuple(colors), lat, c)


def check_write_guarantee(col: Coloring, c: Chair) -> Verdict:
    """Every reachable write target must see each color exactly once.

    For an anchor state p the reachable cells are p minus a chair point.  When
    q*e_i is a lattice vector for every axis the grid wraps cleanly and all
    q^n anchors are checked on the torus; otherwise only anchors whose whole
    reflected chair fits inside the grid are checked, and the verdict records
    how many that was.  A failure names the first bad anchor in grid order.

    The check is bit-parallel.  On the torus the grid is first extended
    periodically by l_i - 1 cells below each axis, which makes every anchor
    an interior one.  Cells are bits of one integer, the first cell the most
    significant, so the anchors that see color v are the mask of v's cells
    shifted right by each chair point's flat offset, ORed together.  Those
    masks are summed, one color at a time, in a bit-sliced counter; an anchor
    passes when its count of colors seen equals sigma.
    """
    sides = c.int_sides()
    q = col.q
    torus = col.lattice.wraps(q)
    mode = "torus" if torus else "interior"
    if not torus and any(l > q for l in sides):
        return Verdict.passed(mode=mode, anchors=0)
    pads = [l - 1 if torus else 0 for l in sides]
    dims = [q + pad for pad in pads]
    strides = [math.prod(dims[i + 1:]) for i in range(col.n)]
    offsets = [sum(map(operator.mul, e, strides)) for e in enumerate_points(c)]
    anchor_bits = b"1"
    for d, l in zip(reversed(dims), reversed(sides)):
        anchor_bits = b"0" * (len(anchor_bits) * (l - 1)) + anchor_bits * (d - l + 1)
    anchors = int(anchor_bits, 2)
    planes: list[int] = []  # planes[j] holds bit j of every anchor's count
    for mask in _color_masks(col.colors, q, pads):
        carry = 0
        for off in offsets:
            carry |= mask >> off
        carry &= anchors
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
        if carry:
            planes.append(carry)
    exact = anchors if col.sigma < 1 << len(planes) else 0
    for j, plane in enumerate(planes):
        exact &= plane if col.sigma >> j & 1 else ~plane
    bad = anchors ^ exact
    if bad:
        flat = len(anchor_bits) - bad.bit_length()
        witness = []
        for d, pad in zip(reversed(dims), reversed(pads)):
            flat, y = divmod(flat, d)
            witness.append(y - pad)
        return Verdict.failed("anchor misses a color", tuple(reversed(witness)), mode=mode)
    return Verdict.passed(mode=mode, anchors=anchors.bit_count())


def _color_masks(colors: Sequence[int], q: int, pads: Sequence[int]) -> Iterator[int]:
    """For each distinct color, the bitmask of its cells in the grid extended
    periodically by pads[i] cells below axis i, first cell most significant.

    Colors are coded as bytes, at most 255 colors per pass with 255 for any
    other; one pass extends that byte grid and translates it to '0'/'1' once
    per color, which int(.., 2) reads in linear time.
    """
    values = sorted(set(colors))
    for start in range(0, len(values), 255):
        block = values[start:start + 255]
        code = dict.fromkeys(values, 255)
        code.update((v, i) for i, v in enumerate(block))
        grid = bytes(map(code.__getitem__, colors))
        size = 1  # cells in the axes after the current one, already extended
        for pad in reversed(pads):
            width = q * size
            copies = -(-pad // q)
            cut = (copies * q - pad) * size
            grid = b"".join((grid[i:i + width] * (copies + 1))[cut:]
                            for i in range(0, len(grid), width))
            size *= q + pad
        for i in range(len(block)):
            yield int(grid.translate(b"0" * i + b"1" + b"0" * (255 - i)), 2)


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
