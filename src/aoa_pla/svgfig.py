"""Minimal self-contained SVG charts (line and color-mapped surface).

No plotting library is used so that emitted figures have no runtime
dependencies and are byte-reproducible. Both charts are rendered from
arrays. A polyline's points come from one array pass and one format call,
with the scalar `to_px` arithmetic in the same order, so its bytes equal
those of the per-point loop that `tests/oracles.py` keeps as the
reference. A surface's colours are mapped for the whole grid at once into
one pixel per cell, drawn as a single PNG embedded over the plot area and
scaled with nearest-neighbour rendering; the tests decode that PNG and
check its pixels, and the SVG text around it, against the per-cell
scalar colour map of `tests/oracles.py`. Both charts share one frame: the
plot area, the `to_px` map that `_axes` returns and `_document`.
"""

from __future__ import annotations

import base64
import math
import struct
import zlib

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 150, 30, 55
_PLOT_W, _PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

SERIES_COLORS = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
]

# viridis-like anchors for the surface color map
_CMAP = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]
_CMAP_RGB = np.array(_CMAP, dtype=float)


def _fmt(x):
    return f"{x:.6g}"


def _ticks(lo, hi, count=6):
    if hi == lo:
        return [lo]
    raw = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(abs(raw)))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        ticks.append(0.0 if abs(t) < 1e-12 * abs(step) else t)
        t += step
    return ticks or [lo, hi]


def _color_keys(frac):
    """Colour-map colour of every entry of an array of fractions, packed as r<<16 | g<<8 | b.

    A fraction is clamped to [0, 1] and interpolated linearly between the
    two `_CMAP` anchors around it; each channel is rounded half-to-even.
    """
    pos = np.clip(frac, 0.0, 1.0) * (len(_CMAP) - 1)
    i = np.minimum(pos.astype(np.int64), len(_CMAP) - 2)
    w = pos - i
    keys = np.zeros(pos.shape, dtype=np.int64)
    for anchors in _CMAP_RGB.T:  # red, green, blue
        a, b = anchors[i], anchors[i + 1]
        keys = keys << 8 | np.round(a + (b - a) * w).astype(np.int64)
    return keys


def _key_color(key):
    return f"rgb({key >> 16},{key >> 8 & 255},{key & 255})"


# zlib's fastest level: level 9 saves about a fifth of the fig3d bytes at three times the time
_PNG_LEVEL = 1


def _png(pixels):
    """The 8-bit RGBA PNG (ISO/IEC 15948) of an (H, W) array of big-endian uint32 0xRRGGBBAA pixels, top row first.

    Every scanline takes filter type 0 (none), and the image data is one
    zlib stream in one IDAT chunk.
    """
    height, width = pixels.shape
    scanlines = np.zeros((height, 1 + 4 * width), dtype=np.uint8)
    scanlines[:, 1:] = pixels.view(np.uint8)

    def chunk(tag, data):
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))

    header = struct.pack(">IIBBBBB", width, height, 8, 6, 0, 0, 0)  # depth 8, RGBA, deflate, filter set 0, no interlace
    idat = zlib.compress(scanlines.tobytes(), _PNG_LEVEL)
    return b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


def _first_extremes(values):
    """(min, max) of a non-empty 1-D array as Python floats.

    `argmin`/`argmax` return the first extreme, as `min`/`max` over the
    values in order would, so a tie of -0.0 and 0.0 keeps the first.
    """
    return float(values[values.argmin()]), float(values[values.argmax()])


def _check_range(axis, lo, hi, pad=0.0):
    """ValueError unless [lo - pad, hi + pad], the range a chart spans, has a finite float span."""
    if not math.isfinite((hi + pad) - (lo - pad)):
        raise ValueError(f"{axis} range [{lo!r}, {hi!r}] overflows: its span is not a finite float")


def _widen(axis, lo, hi):
    """(lo, hi), a constant range widened to [lo, lo + 1]; ValueError when that addition rounds away."""
    if hi == lo:
        hi = lo + 1.0
        if hi == lo:
            raise ValueError(f"{axis} range [{lo!r}, {hi!r}] is empty: adding 1 to a float this large leaves it unchanged")
    return lo, hi


def _document(parts):
    """The SVG document of the chart elements `parts`, on a white background."""
    head = f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    return "\n".join([head, f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>', *parts, "</svg>\n"])


def _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    """Append the frame, ticks and labels of [x_lo, x_hi] x [y_lo, y_hi] to `parts`; return its map to pixels.

    to_px(x, y) maps data coordinates, scalars or arrays; a range of zero width spans 1.
    """
    x_span, y_span = (x_hi - x_lo) or 1.0, (y_hi - y_lo) or 1.0

    def to_px(x, y):
        return MARGIN_L + (x - x_lo) / x_span * _PLOT_W, HEIGHT - MARGIN_B - (y - y_lo) / y_span * _PLOT_H

    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{_PLOT_W}" height="{_PLOT_H}" fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        px, _ = to_px(t, y_lo)
        parts.append(f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        _, py = to_px(x_lo, t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" font-size="11" text-anchor="end">{_fmt(t)}</text>')
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">{y_label}</text>'
    )
    return to_px


def line_chart(x, series, x_label="", y_label=""):
    """SVG line chart. `series` is {name: y-values}, all aligned with `x`.

    Non-finite y values are left out of their polyline.
    """
    xs = np.asarray(x, dtype=float)
    ys = {name: np.asarray(vals, dtype=float) for name, vals in series.items()}
    if any(vals.shape != xs.shape for vals in ys.values()):
        raise ValueError("every series must align with x")
    finite = [vals[np.isfinite(vals)] for vals in ys.values()]
    ys_all = np.concatenate(finite) if finite else xs[:0]
    if not xs.size or not ys_all.size:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _widen("x", *_first_extremes(xs))
    y_lo, y_hi = _widen("y", *_first_extremes(ys_all))
    pad = 0.05 * (y_hi - y_lo)
    _check_range("x", x_lo, x_hi)
    _check_range("y", y_lo, y_hi, pad)
    y_lo -= pad
    y_hi += pad
    parts = []
    to_px = _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for idx, (name, vals) in enumerate(ys.items()):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        keep = np.isfinite(vals)
        px, py = to_px(xs[keep], vals[keep])
        # "%.6g" prints what `_fmt` does; one format call covers every point
        pts = " ".join(["%.6g,%.6g"] * px.size) % tuple(np.column_stack((px, py)).ravel().tolist())
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R + 10}" y1="{ly - 4}" x2="{WIDTH - MARGIN_R + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{WIDTH - MARGIN_R + 38}" y="{ly}" font-size="11">{name}</text>')
    return _document(parts)


def surface_chart(x, y, z, x_label="", y_label="", z_label=""):
    """Color-mapped surface over a rectangular (x, y) grid.

    `z` is an array-like of shape (len(y), len(x)): rows are indexed by `y`
    and columns by `x`. The grid is one embedded PNG with a pixel per
    cell and the last y on top. The colour range spans the finite cells
    and non-finite cells are left undrawn, as transparent pixels.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    z = np.asarray(z, dtype=float)
    if z.shape != (len(ys), len(xs)):
        raise ValueError("z must be len(y) x len(x)")
    finite = np.isfinite(z)
    values = z[finite]
    if not values.size:
        raise ValueError("nothing to plot")
    z_lo, z_hi = _first_extremes(values)
    for axis, lo, hi in (("x", xs[0], xs[-1]), ("y", ys[0], ys[-1]), ("z", z_lo, z_hi)):
        _check_range(axis, lo, hi)
    span = (z_hi - z_lo) or 1.0
    # one pixel per cell, the last y on top; a non-finite cell stays transparent
    pixels = np.zeros(z.shape, dtype=">u4")
    pixels[finite] = _color_keys((values - z_lo) / span) << 8 | 255
    uri = base64.b64encode(_png(pixels[::-1])).decode("ascii")
    parts = [
        f'<image x="{MARGIN_L}" y="{MARGIN_T}" width="{_PLOT_W}" height="{_PLOT_H}" preserveAspectRatio="none" '
        f'image-rendering="optimizeSpeed" style="image-rendering:pixelated" href="data:image/png;base64,{uri}"/>'
    ]
    _axes(parts, xs[0], xs[-1], ys[0], ys[-1], x_label, y_label)
    # color bar
    bar_x = WIDTH - MARGIN_R + 30
    steps = 40
    for i, key in enumerate(_color_keys(np.arange(steps) / (steps - 1)).tolist()):
        by = HEIGHT - MARGIN_B - (i + 1) * _PLOT_H / steps
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(by)}" width="18" height="{_fmt(_PLOT_H / steps + 0.5)}" '
            f'fill="{_key_color(key)}"/>'
        )
    parts.append(f'<text x="{bar_x}" y="{MARGIN_T - 8}" font-size="11">{z_label}</text>')
    parts.append(f'<text x="{bar_x + 24}" y="{HEIGHT - MARGIN_B}" font-size="10">{_fmt(z_lo)}</text>')
    parts.append(f'<text x="{bar_x + 24}" y="{MARGIN_T + 10}" font-size="10">{_fmt(z_hi)}</text>')
    return _document(parts)
