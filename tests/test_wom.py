import io
import math
import random
import struct
from collections import Counter
from itertools import product

import pytest

from chaircodes.chair import Chair
from chaircodes.errors import BadParameters, BudgetExceeded, DimensionMismatch, NotATiling
from chaircodes.lattice import Lattice, chair_lattice
from chaircodes.wom import Coloring, PaddedGrid, build_coloring, check_write_guarantee, write_binary, write_csv
from oracles import random_chair, reference_build_coloring, reference_check_write_guarantee, reference_reach


def small_coloring(q=3):
    c = Chair((2, 2), (1, 1))
    return build_coloring(chair_lattice(c), c, q), c


class TestBuildColoring:
    def test_three_colors_on_3x3(self):
        col, _ = small_coloring()
        assert col.sigma == 3
        # the zero coset is the diagonal and gets color 0
        assert col.color_of((0, 0)) == col.color_of((1, 1)) == col.color_of((2, 2)) == 0

    def test_color_count_equals_volume(self):
        from chaircodes.chair import volume

        for sides, notch, q in [((2, 2), (1, 1), 4), ((3, 3), (2, 2), 5), ((2, 2, 2), (1, 1, 1), 3)]:
            c = Chair(sides, notch)
            col = build_coloring(chair_lattice(c), c, q)
            assert col.sigma == volume(c)

    def test_single_state(self):
        c = Chair((2, 2), (1, 1))
        col = build_coloring(chair_lattice(c), c, 1)
        assert col.colors == (0,)

    def test_coset_constant_along_generators(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        lat = chair_lattice(c)
        col = build_coloring(lat, c, 5)
        for p in product(range(5), repeat=3):
            for row in lat.generator:
                shifted = tuple(a + b for a, b in zip(p, row))
                if all(0 <= x < 5 for x in shifted):
                    assert col.color_of(shifted) == col.color_of(p)

    def test_class_size_distribution(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        col = build_coloring(chair_lattice(c), c, 4)
        assert col.sigma == 7
        assert sorted(Counter(col.colors).values()) == [9, 9, 9, 9, 9, 9, 10]

    def test_not_a_tiling(self):
        c = Chair((2, 2), (1, 1))
        with pytest.raises(NotATiling):
            build_coloring(Lattice([[1, 0], [0, 1]]), c, 3)

    def test_color_of_refuses_other_lengths_and_non_integers(self):
        # a state of another length once read another cell's color: (1,) and
        # (0, 0, 1) both gave the color of (0, 1); a bool passed as 0 or 1
        col, _ = small_coloring()
        for state in [(1,), (0, 0, 1), ()]:
            with pytest.raises(DimensionMismatch, match=f"state has {len(state)} coordinates, grid is 2-dim"):
                col.color_of(state)
        for state in [(True, False), (0, 1.0), (0, "1")]:
            with pytest.raises(BadParameters, match="a state coordinate must be an integer"):
                col.color_of(state)
        with pytest.raises(BadParameters, match="outside"):
            col.color_of((0, 3))

    def test_bad_q(self):
        c = Chair((2, 2), (1, 1))
        with pytest.raises(BadParameters):
            build_coloring(chair_lattice(c), c, 0)

    def test_budget(self, monkeypatch):
        c = Chair((2, 2, 2), (1, 1, 1))
        monkeypatch.setenv("CHAIRCODES_BUDGET", str(10**6))
        with pytest.raises(BudgetExceeded):
            build_coloring(chair_lattice(c), c, 101)


class TestWriteGuarantee:
    def test_torus_mode_small_square(self):
        col, c = small_coloring(3)
        verdict = check_write_guarantee(col, c)
        assert verdict.ok
        assert ("mode", "torus") in verdict.detail
        assert ("anchors", "9") in verdict.detail

    def test_interior_mode(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        col = build_coloring(chair_lattice(c), c, 4)  # 4*e_i is not a lattice vector
        verdict = check_write_guarantee(col, c)
        assert verdict.ok
        assert ("mode", "interior") in verdict.detail
        assert ("anchors", "27") in verdict.detail

    def test_constant_coloring_fails(self):
        # with sigma = 1 too: each anchor sees color 0 three times
        col, c = small_coloring(3)
        for sigma in (col.sigma, 1):
            broken = Coloring(col.q, col.n, sigma, (0,) * len(col.colors), col.lattice, col.chair)
            verdict = check_write_guarantee(broken, c)
            assert not verdict.ok
            assert verdict.witness == (0, 0)
            assert verdict == reference_check_write_guarantee(broken, c)

    def test_chair_of_another_dimension(self):
        col, _ = small_coloring(3)
        with pytest.raises(DimensionMismatch):
            check_write_guarantee(col, Chair((2, 2, 2), (1, 1, 1)))
        with pytest.raises(DimensionMismatch):
            check_write_guarantee(col, Chair((3,), (1,)))

    def test_vacuous_when_chair_does_not_fit(self):
        c = Chair((3, 3), (2, 2))
        col = build_coloring(chair_lattice(c), c, 2)
        verdict = check_write_guarantee(col, c)
        assert verdict.ok
        assert ("anchors", "0") in verdict.detail

    def test_torus_exhaustive_small(self):
        # every chair tiling with q a multiple of all quotient divisors wraps
        for sides, notch, q in [
            ((2, 2), (1, 1), 3),
            ((3, 3), (2, 2), 5),
            ((2, 2, 2), (1, 1, 1), 7),  # within budget: 343 anchors
            ((2, 3), (1, 2), 4),
        ]:
            c = Chair(sides, notch)
            lat = chair_lattice(c)
            col = build_coloring(lat, c, q)
            verdict = check_write_guarantee(col, c)
            assert verdict.ok
            assert ("mode", "torus") in verdict.detail


class TestExports:
    def test_csv_rows(self):
        col, _ = small_coloring(3)
        buf = io.StringIO()
        assert write_csv(col, buf) == 9
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == 9
        assert lines[0] == "0,0,0"
        assert lines[-1].startswith("2,2,")
        # deterministic golden for the whole grid
        expected_colors = [col.color_of(tuple(map(int, ln.split(",")[:2]))) for ln in lines]
        assert [int(ln.split(",")[-1]) for ln in lines] == expected_colors

    def test_binary_format(self):
        col, _ = small_coloring(3)
        buf = io.BytesIO()
        assert write_binary(col, buf) == 9
        raw = buf.getvalue()
        assert raw[:8] == b"WOMCOLR1"
        assert len(raw) == 8 + 2 * 9
        cells = struct.unpack("<9H", raw[8:])
        assert list(cells) == list(col.colors)

    def test_binary_rejects_wide_palettes(self):
        col, c = small_coloring(3)
        wide = Coloring(col.q, col.n, 70000, col.colors, col.lattice, c)
        with pytest.raises(BadParameters):
            write_binary(wide, io.BytesIO())


def seeded_colorings(seed=2012, bases=56):
    """(label, coloring, chair) triples: seeded chair colorings on torus,
    interior and vacuous grids, each with seven corrupted copies."""
    rng = random.Random(seed)
    out = []
    while len(out) < 8 * bases:
        n = rng.choice((1, 2, 2, 3))
        c = random_chair(rng, n, max_side=4 if n < 3 else 3)
        lat = chair_lattice(c)
        exponent = max(lat.labeling().divisors, default=1)
        q = rng.choice((exponent * rng.randint(1, 2), rng.randint(1, 7)))
        if q**n > 350:
            continue
        col = build_coloring(lat, c, q)
        cells = len(col.colors)
        sigma = col.sigma

        def variant(colors, s=sigma):
            return Coloring(q, n, s, tuple(colors), lat, c)

        i, j = rng.sample(range(cells), 2) if cells > 1 else (0, 0)
        swapped = list(col.colors)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        recolored = list(col.colors)
        recolored[i] = (recolored[i] + rng.randint(1, max(1, sigma - 1))) % sigma
        foreign = list(col.colors)
        foreign[i] = foreign[min(i + 1, cells - 1)] = sigma + rng.randrange(3)
        lone = list(col.colors)
        lone[i] = sigma + 1 if i % 2 else -1
        out += [
            ("intact", col, c),
            ("swapped", variant(swapped), c),
            ("recolored", variant(recolored), c),
            ("color >= sigma", variant(foreign), c),
            ("one foreign cell", variant(lone), c),
            ("sigma + 1", variant(col.colors, sigma + 1), c),
            ("sigma - 1", variant(col.colors, sigma - 1), c),
            ("one color", variant((0,) * cells, 1), c),
        ]
    return out


class TestAgainstReference:
    def test_build_matches_per_cell_labels(self):
        rng = random.Random(77)
        for _ in range(40):
            n = rng.choice((1, 2, 3))
            c = random_chair(rng, n, max_side=4)
            lat = chair_lattice(c)
            q = rng.randint(1, 9 if n < 3 else 5)
            assert build_coloring(lat, c, q).colors == reference_build_coloring(lat, c, q).colors

    def test_check_matches_anchor_loop(self):
        instances = seeded_colorings()
        assert len(instances) >= 300
        modes = Counter()
        rejected = Counter()
        for label, col, c in instances:
            verdict = check_write_guarantee(col, c)
            assert verdict == reference_check_write_guarantee(col, c), (label, col.q, c)
            detail = dict(verdict.detail)
            modes[detail["mode"] if detail.get("anchors") != "0" else "vacuous"] += 1
            rejected[label] += not verdict.ok
        assert min(modes["torus"], modes["interior"], modes["vacuous"]) >= 20, modes
        assert rejected["intact"] == 0
        for label in ("swapped", "recolored", "color >= sigma", "one foreign cell", "sigma + 1", "sigma - 1",
                      "one color"):
            assert rejected[label] > 0, rejected

    def test_wide_palette(self):
        # more than 255 colors take several byte-coded passes over the grid
        c = Chair((17, 17), (1, 1))
        col = build_coloring(chair_lattice(c), c, 20)
        assert col.sigma == 288
        broken = list(col.colors)
        broken[-1] = broken[-2] = 10**30
        verdicts = []
        for colored in (col, Coloring(col.q, col.n, col.sigma, tuple(broken), col.lattice, c)):
            verdicts.append(check_write_guarantee(colored, c))
            assert verdicts[-1] == reference_check_write_guarantee(colored, c)
        assert [v.ok for v in verdicts] == [True, False]

    def test_plane_encoding_traps(self):
        # each bad cell would pass as a real color if its code were cut to the
        # low bits: 9 and -255 alias 1 in three or eight bits, v +- 2**16 alias
        # v in sixteen
        c = Chair((2, 2, 2), (1, 1, 1))
        col = build_coloring(chair_lattice(c), c, 7)
        assert col.sigma == 7
        wide_c = Chair((17, 17), (1, 1))
        wide = build_coloring(chair_lattice(wide_c), wide_c, 20)
        assert wide.sigma == 288
        cases = []
        for bad in (9, -255):
            colors = list(col.colors)
            colors[colors.index(1)] = bad
            cases.append((Coloring(col.q, col.n, 7, tuple(colors), col.lattice, c), c))
        colors = list(wide.colors)
        for state, shift in (((10, 10), 1 << 16), ((5, 12), -(1 << 16))):
            colors[state[0] * 20 + state[1]] += shift
        cases.append((Coloring(wide.q, wide.n, 288, tuple(colors), wide.lattice, wide_c), wide_c))
        for colored, chair in cases:
            verdict = check_write_guarantee(colored, chair)
            assert verdict == reference_check_write_guarantee(colored, chair)
            assert not verdict.ok


class TestReach:
    def test_boxes_match_point_shifts(self):
        rng = random.Random(4)
        seen = Counter()
        for _ in range(240):
            n = rng.randint(1, 4)
            c = random_chair(rng, n, max_side=(6, 5, 4, 3)[n - 1])
            q = rng.randint(1, 5)
            wrap = rng.random() < 0.5
            grid = PaddedGrid(c, q, wrap)
            cells = math.prod(grid.dims)
            for mask in (rng.getrandbits(cells), 1 << rng.randrange(cells), grid.full):
                assert grid.reach(mask) == reference_reach(grid, c, mask), (c, q, wrap)
            seen["side 2"] += 2 in c.sides
            seen["wider than q"] += max(c.sides) > q
            seen["wrap" if wrap else "no wrap"] += 1
        assert min(seen.values()) >= 40, seen
