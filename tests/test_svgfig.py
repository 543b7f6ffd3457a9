"""The array-rendered charts and CSV against their scalar references."""

import math

import numpy as np
import pytest

import oracles
from aoa_pla import svgfig
from aoa_pla.experiments import ResultTable, write_csv
from aoa_pla.svgfig import _CMAP, _color_keys, _key_color
from oracles import _color, decode_surface


def _batched_colors(fracs):
    return [_key_color(key) for key in _color_keys(np.asarray(fracs, dtype=float)).tolist()]


def test_color_keys_match_scalar_color_on_random_fractions():
    fracs = np.random.default_rng(0).uniform(-0.05, 1.05, 100_000).tolist()
    assert _batched_colors(fracs) == [_color(f) for f in fracs]


def _half_integer_fractions():
    """(frac, channel value) pairs at which `_color` rounds a value of exactly k + 0.5."""
    found = []
    for i, (lo, hi) in enumerate(zip(_CMAP, _CMAP[1:])):
        for a, b in zip(lo, hi):
            d = b - a
            for m in range(min(0, d), max(0, d)):
                # walk a few ulps around the fraction whose value is a + m + 0.5
                frac = (i + (m + 0.5) / d) / 4
                for _ in range(8):
                    frac = math.nextafter(frac, -1.0)
                for _ in range(16):
                    pos = frac * 4
                    if min(int(pos), 3) == i and a + d * (pos - i) == a + m + 0.5:
                        found.append((frac, a + m + 0.5))
                    frac = math.nextafter(frac, 2.0)
    return found


def test_color_keys_round_exact_halves_like_color():
    found = _half_integer_fractions()
    values = [v for _, v in found]
    # half-to-even rounds some halves down and some up; both kinds are present
    assert any(round(v) < v for v in values) and any(round(v) > v for v in values)
    fracs = [f for f, _ in found]
    assert _batched_colors(fracs) == [_color(f) for f in fracs]


def test_color_keys_clamp_to_the_end_colors():
    fracs = [-1.0, -1e-300, -0.0, 0.0, 5e-324, math.nextafter(1.0, 0.0), 1.0, 1.0 + 1e-15, 2.0]
    assert _batched_colors(fracs) == [_color(f) for f in fracs]
    assert _batched_colors([-1.0, 2.0]) == ["rgb(68,1,84)", "rgb(253,231,37)"]


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 2), (6, 5)])
def test_surface_chart_matches_scalar_oracle(shape):
    rng = np.random.default_rng(sum(shape))
    x = np.sort(rng.uniform(-2.0, 2.0, shape[1]))
    y = np.sort(rng.uniform(0.0, 3.0, shape[0]))
    for z in (rng.normal(size=shape), np.full(shape, 0.25), np.round(rng.normal(size=shape), 1)):
        got = decode_surface(svgfig.surface_chart(x, y, z, "x", "y", "z"))
        assert got == decode_surface(oracles.surface_chart(x, y, z, "x", "y", "z"))


@pytest.mark.parametrize(
    "z, label", [([[0.0, -0.0], [1.0, 2.0]], "0"), ([[-1.0, -2.0], [-0.0, 0.0]], "-0")]
)
def test_surface_chart_labels_the_first_of_tied_signed_zero_extremes(z, label):
    # min()/max() keep the first of -0.0 and 0.0; numpy's min/max need not
    svg = svgfig.surface_chart([0.0, 1.0], [0.0, 1.0], z)
    assert decode_surface(svg) == decode_surface(oracles.surface_chart([0.0, 1.0], [0.0, 1.0], z))
    assert f'font-size="10">{label}</text>' in svg


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_surface_chart_leaves_non_finite_cells_undrawn(bad):
    x, y = [0.0, 1.0], [0.0, 1.0]
    z = [[1.0, bad], [2.0, 3.0]]
    svg = svgfig.surface_chart(x, y, z)
    text, pixels = decode_surface(svg)
    assert (text, pixels) == decode_surface(oracles.surface_chart(x, y, z))
    _, drawn = decode_surface(svgfig.surface_chart(x, y, [[1.0, 2.5], [2.0, 3.0]]))
    # the first y is the bottom row: its second cell is transparent, and every other pixel is as drawn
    assert pixels[1][1] == (0, 0, 0, 0) and drawn[1][1][3] == 255
    cells = [list(row) for row in pixels]
    cells[1][1] = drawn[1][1]
    assert tuple(map(tuple, cells)) == drawn
    # the colour bar spans the finite cells, 1 to 3
    assert 'font-size="10">1</text>' in svg and 'font-size="10">3</text>' in svg


def test_surface_chart_draws_one_pixel_per_cell_with_the_last_y_on_top():
    svg = svgfig.surface_chart([0.0, 1.0, 2.0], [0.0, 1.0], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    _, pixels = decode_surface(svg)
    assert pixels == (((253, 231, 37, 255),) * 3, ((68, 1, 84, 255),) * 3)
    # one image; the only rects are the background, the frame and the 40 colour-bar steps
    assert svg.count("<image ") == 1 and svg.count("<rect ") == 42
    # the decoder checks every chunk's CRC, so it notices a changed byte
    uri = svg.index("base64,") + len("base64,")
    with pytest.raises(ValueError, match="bad CRC"):
        decode_surface(svg[:uri + 24] + ("A" if svg[uri + 24] != "A" else "B") + svg[uri + 25:])


def test_surface_chart_without_finite_cells_has_nothing_to_plot():
    with pytest.raises(ValueError, match="nothing to plot"):
        svgfig.surface_chart([0.0, 1.0], [0.0], [[math.nan, math.inf]])
    with pytest.raises(ValueError, match="len\\(y\\) x len\\(x\\)"):
        svgfig.surface_chart([0.0, 1.0], [0.0], [[1.0, 2.0, 3.0]])


def test_surface_chart_rejects_an_overflowing_range():
    with pytest.raises(ValueError, match=r"z range \[-1e\+308, 1e\+308\] overflows"):
        svgfig.surface_chart([0.0, 1.0], [0.0], [[-1e308, 1e308]])
    with pytest.raises(ValueError, match=r"x range \[-1e\+308, 1e\+308\] overflows"):
        svgfig.surface_chart([-1e308, 1e308], [0.0], [[1.0, 2.0]])


def test_line_chart_rejects_an_overflowing_range():
    with pytest.raises(ValueError, match=r"y range \[-1e\+308, 1e\+308\] overflows"):
        svgfig.line_chart([0.0, 1.0], {"a": [-1e308, 1e308]})
    with pytest.raises(ValueError, match=r"x range \[-1e\+308, 1e\+308\] overflows"):
        svgfig.line_chart([-1e308, 1e308], {"a": [0.0, 1.0]})
    # the data span is finite, but the 5% padding at each end overflows it
    with pytest.raises(ValueError, match="y range .* overflows"):
        svgfig.line_chart([0.0, 1.0], {"a": [-8.5e307, 8.5e307]})
    # a constant range is widened by 1, which rounds away beyond 2**53
    for x, y, shown in (
        ([0.0, 1.0], [1e308, 1e308], r"y range \[1e\+308, 1e\+308\]"),
        ([5.0, 5.0], [1e300, 1e300], r"y range \[1e\+300, 1e\+300\]"),
        ([1e17, 1e17], [0.0, 1.0], r"x range \[1e\+17, 1e\+17\]"),
    ):
        with pytest.raises(ValueError, match=shown + " is empty"):
            svgfig.line_chart(x, {"a": y})


def test_line_chart_matches_scalar_oracle():
    x = [1, 2, 3, 4, 5]
    series = {"a": [0.5, math.nan, 1.5, -0.0, 2.0], "b": [math.inf, 3.0, 0.0, -1.0, math.nan], "c": [math.nan] * 5}
    assert svgfig.line_chart(x, series, "x", "y") == oracles.line_chart(x, series, "x", "y")
    flat = {"a": [2.0, 2.0, 2.0, 2.0, 2.0]}
    assert svgfig.line_chart(x, flat) == oracles.line_chart(x, flat)


def test_line_chart_rejects_empty_and_misaligned_series():
    with pytest.raises(ValueError, match="nothing to plot"):
        svgfig.line_chart([0.0, 1.0], {"a": [math.nan, math.inf]})
    with pytest.raises(ValueError, match="nothing to plot"):
        svgfig.line_chart([0.0, 1.0], {})
    with pytest.raises(ValueError, match="align"):
        svgfig.line_chart([0.0, 1.0], {"a": [1.0]})


_NAN_PAYLOAD = float(np.array([0x7FF8000000000001]).view(np.float64)[0])
_REPEATS = np.round(np.random.default_rng(3).normal(size=(5000, 2)), 1).tolist()

CSV_CASES = {
    "signed zeros": [(-0.0, 0.0, 0.0), (0.0, -0.0, -0.0), (-0.0, -0.0, 0.0)],
    "non-finite": [(math.nan, math.inf, -math.inf), (_NAN_PAYLOAD, -math.inf, 1.0), (-math.nan, 0.5, math.inf)],
    "ints": [(1, 2**63 - 1, -3), (0, -(2**63), 7), (1, 2**63 - 1, -3)],
    "repeats": [(0.1, 1 / 3, 2.0)] * 4 + [(0.1, 2.0, 1 / 3)] * 3,
    "mixed types": [(1, 1.0, True), (-2, 2.5, False), (3, 0.1, True)],
    "one row": [(1e-300, 5e-324, 1.7976931348623157e308)],
    "zero rows": [],
    "several chunks": [(a, b, i) for i, (a, b) in enumerate(_REPEATS)],
}


@pytest.mark.parametrize("case", CSV_CASES)
def test_write_csv_matches_row_wise_oracle(case, tmp_path):
    # one record array field per column: int64, float64 or bool as the column's cells are
    rows = np.rec.fromarrays(list(zip(*CSV_CASES[case])) or [(), (), ()], names=["a", "b", "c"])
    table = ResultTable(["a", "b", "c"], rows, {"figure_id": "t", "seed": 0, "grid": (1, 2)})
    write_csv(table, tmp_path / "lib.csv")
    oracles.write_csv(table, tmp_path / "oracle.csv")
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
