import io
import struct
from collections import Counter
from itertools import product

import pytest

from chaircodes.chair import Chair
from chaircodes.errors import BadParameters, BudgetExceeded, NotATiling
from chaircodes.lattice import Lattice, chair_lattice
from chaircodes.wom import Coloring, build_coloring, check_write_guarantee, write_binary, write_csv


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

    def test_bad_q(self):
        c = Chair((2, 2), (1, 1))
        with pytest.raises(BadParameters):
            build_coloring(chair_lattice(c), c, 0)

    def test_budget(self):
        c = Chair((2, 2, 2), (1, 1, 1))
        with pytest.raises(BudgetExceeded):
            build_coloring(chair_lattice(c), c, 101, budget=10**6)


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
        col, c = small_coloring(3)
        broken = Coloring(col.q, col.n, col.sigma, (0,) * len(col.colors), col.lattice, col.chair)
        verdict = check_write_guarantee(broken, c)
        assert not verdict.ok

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
