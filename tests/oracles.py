"""Reference implementations for tests only.

The library renders tables and charts from arrays. These compute the same
output one row, one point or one cell at a time, with the scalar colour
map `_rgb`, so that tests can require the library's bytes to equal
theirs. A surface's cells are pixels of one embedded PNG, whose
compressed bytes depend on the zlib build: tests compare surfaces through
`decode_surface`, pixel by pixel and by the SVG text around the PNG.
Axes and ticks come from `aoa_pla.svgfig`, which keeps them scalar.

The paper's Dirichlet-kernel closed forms are kept here too: the Gram
matrix G = A^H A entry by entry (its entries are the two-antenna
coefficients b0, b1 and d1), and the single-antenna attacker's (the
paper's Case 2) MSE and gradient through the Dirichlet ratio, and its
optimal precoder with the Hessian determinant there. Tests check
`attack.gram_matrix`, `attack.mse_delta` and `attack.optimal_precoders`
against them.

The snapshot block draw is kept as `synthesize_legitimate` and
`synthesize_attack` each wrote it with `_noise_block`, so that tests can
require the library's one block draw to give the same samples.

The sample-covariance draw is kept as `synthesize_covariance` drew one
covariance before it drew stacks, so that tests can require the library's
one-covariance draw to give the same matrix.

The Monte Carlo MSE is kept as one (trials, M, 2) draw shared by every
sweep point and a loop over the points in the direct form ||d + w_t||^2,
and the simulated columns of fig3 and fig7 as that loop over their
points, so that tests can require the library's moment form (each point's
statistics from the draw's sums about its known expectation) to give
the same numbers to within a stated rounding bound.
"""

from __future__ import annotations

import base64
import cmath
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from aoa_pla.arrays import (
    TWO_PI,
    ArrayGeometry,
    NoiseModel,
    SignalBlock,
    _precoders,
    attack_wavefront,
    derive_rng,
    legitimate_wavefront,
    steering_vector,
)
from aoa_pla import attack
from aoa_pla.experiments import _best_case_precoders
from aoa_pla.svgfig import (
    _CMAP,
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    SERIES_COLORS,
    WIDTH,
    _axes,
    _fmt,
)


def _rgb(frac):
    """The colour-map colour of one fraction, as (r, g, b)."""
    frac = min(max(frac, 0.0), 1.0)
    pos = frac * (len(_CMAP) - 1)
    i = min(int(pos), len(_CMAP) - 2)
    w = pos - i
    return tuple(round(a + (b - a) * w) for a, b in zip(_CMAP[i], _CMAP[i + 1]))


def _color(frac):
    """The colour-map colour of one fraction, as `rgb(r,g,b)`."""
    return "rgb({},{},{})".format(*_rgb(frac))


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_PNG_URI = "data:image/png;base64,"


def _png_chunk(tag, data):
    return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))


def _png(rows):
    """An 8-bit RGBA PNG of rows of (r, g, b, a) pixels, top row first, stored uncompressed."""
    scanlines = b"".join(b"\0" + bytes(channel for pixel in row for channel in pixel) for row in rows)
    header = struct.pack(">IIBBBBB", len(rows[0]), len(rows), 8, 6, 0, 0, 0)
    return (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", header)
        + _png_chunk(b"IDAT", zlib.compress(scanlines, 0))
        + _png_chunk(b"IEND", b"")
    )


def decode_surface(svg):
    """(`svg` with its one PNG data URI emptied, the PNG's pixel rows), to compare surface charts by.

    The PNG is decoded with the stdlib alone: base64, a walk over its
    chunks that checks each CRC, zlib of the IDAT data, and filter type 0
    (none) on every scanline. Pixels are (r, g, b, a) tuples, top row
    first. ValueError when the PNG is not an 8-bit RGBA image of that form.
    """
    head, rest = svg.split(_PNG_URI)
    payload, tail = rest.split('"', 1)
    png = base64.b64decode(payload, validate=True)
    if not png.startswith(_PNG_SIGNATURE):
        raise ValueError("no PNG signature")
    chunks, pos = [], len(_PNG_SIGNATURE)
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos : pos + 4])
        tag, data = png[pos + 4 : pos + 8], png[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length : pos + 12 + length])
        if crc != zlib.crc32(tag + data):
            raise ValueError(f"bad CRC in chunk {tag!r}")
        chunks.append((tag, data))
        pos += 12 + length
    if chunks[0][0] != b"IHDR" or chunks[-1] != (b"IEND", b""):
        raise ValueError("the chunks must run from IHDR to an empty IEND")
    width, height, *form = struct.unpack(">IIBBBBB", chunks[0][1])
    if form != [8, 6, 0, 0, 0]:
        raise ValueError(f"expected 8-bit RGBA, deflate, filter set 0 and no interlace, got {form}")
    raw = zlib.decompress(b"".join(data for tag, data in chunks if tag == b"IDAT"))
    stride = 1 + 4 * width
    if len(raw) != height * stride:
        raise ValueError(f"{len(raw)} bytes of scanlines for a {width} x {height} image")
    rows = []
    for start in range(0, len(raw), stride):
        if raw[start] != 0:
            raise ValueError(f"scanline filter type {raw[start]}, not 0")
        rows.append(tuple(tuple(raw[i : i + 4]) for i in range(start + 1, start + stride, 4)))
    return head + _PNG_URI + tail, tuple(rows)


def write_csv(table, path):
    """`experiments.write_csv`, one `str` per cell and one line per row."""
    lines = [f"# {key} = {table.metadata[key]}" for key in sorted(table.metadata)]
    lines.append(",".join(table.columns))
    lines.extend(",".join(map(str, row)) for row in table.rows.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def line_chart(x, series, x_label="", y_label=""):
    """`svgfig.line_chart`, one `to_px` and two `_fmt` calls per point."""
    xs = [float(v) for v in x]
    ys_all = [float(v) for vals in series.values() for v in vals if math.isfinite(v)]
    if not xs or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def to_px(px, py):
        fx = (px - x_lo) / (x_hi - x_lo)
        fy = (py - y_lo) / (y_hi - y_lo)
        return (
            MARGIN_L + fx * (WIDTH - MARGIN_L - MARGIN_R),
            HEIGHT - MARGIN_B - fy * (HEIGHT - MARGIN_T - MARGIN_B),
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for idx, (name, vals) in enumerate(series.items()):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        pts = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (to_px(a, float(b)) for a, b in zip(xs, vals) if math.isfinite(float(b)))
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * idx
        parts.append(
            f'<line x1="{WIDTH - MARGIN_R + 10}" y1="{ly - 4}" x2="{WIDTH - MARGIN_R + 34}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{WIDTH - MARGIN_R + 38}" y="{ly}" font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def surface_chart(x, y, z, x_label="", y_label="", z_label=""):
    """`svgfig.surface_chart`, one `_rgb` call per cell into a pixel grid.

    As in the library, the colour range spans the finite cells, the last y
    is the top row and a non-finite cell is a transparent pixel. Only the
    PNG's compression differs from the library's, which `decode_surface`
    looks through.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(z) != len(ys) or any(len(row) != len(xs) for row in z):
        raise ValueError("z must be len(y) x len(x)")
    flat = [float(v) for row in z for v in row if math.isfinite(v)]
    if not flat:
        raise ValueError("nothing to plot")
    z_lo, z_hi = min(flat), max(flat)
    span = (z_hi - z_lo) or 1.0
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    pixels = []
    for row in reversed(z):
        pixels.append([(*_rgb((float(v) - z_lo) / span), 255) if math.isfinite(v) else (0, 0, 0, 0) for v in row])
    uri = _PNG_URI + base64.b64encode(_png(pixels)).decode("ascii")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<image x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" preserveAspectRatio="none" '
        f'image-rendering="optimizeSpeed" style="image-rendering:pixelated" href="{uri}"/>',
    ]
    _axes(parts, xs[0], xs[-1], ys[0], ys[-1], x_label, y_label)
    # color bar
    bar_x = WIDTH - MARGIN_R + 30
    steps = 40
    for i in range(steps):
        frac = i / (steps - 1)
        by = HEIGHT - MARGIN_B - (i + 1) * plot_h / steps
        parts.append(
            f'<rect x="{bar_x}" y="{_fmt(by)}" width="18" height="{_fmt(plot_h / steps + 0.5)}" '
            f'fill="{_color(frac)}"/>'
        )
    parts.append(f'<text x="{bar_x}" y="{MARGIN_T - 8}" font-size="11">{z_label}</text>')
    parts.append(f'<text x="{bar_x + 24}" y="{HEIGHT - MARGIN_B}" font-size="10">{_fmt(z_lo)}</text>')
    parts.append(f'<text x="{bar_x + 24}" y="{MARGIN_T + 10}" font-size="10">{_fmt(z_hi)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# pi = _PI_HI + _PI_LO to ~1e-26; _PI_HI has 32 significant bits, so
# k * _PI_HI is exact for |k| < 2**21 (element spacings below ~10**6 wavelengths)
_PI_HI = float.fromhex("0x1.921fb54400000p+1")
_PI_LO = float.fromhex("0x1.0b4611a626331p-33")


def dirichlet_ratio(geom, alpha):
    """sin(M*kappa*alpha/2) / sin(kappa*alpha/2).

    With x = kappa*alpha/2 = k*pi + y, the ratio is
    (-1)^(k*(M-1)) * sin(M*y) / sin(y). Reducing x by the nearest multiple
    of pi first keeps full relative precision next to a grating-lobe alias
    (x near k*pi, k != 0), where sin(M*x) and sin(x) are both tiny and the
    rounding of M*x would otherwise swamp sin(M*x). The removable
    singularity at y = 0 is evaluated by its limit M*cos(M*y)/cos(y).
    """
    m = geom.num_elements
    x = 0.5 * geom.wavenumber_scale * alpha
    k = round(x / math.pi)
    y = (x - k * _PI_HI) - k * _PI_LO
    sign = -1.0 if k * (m - 1) % 2 else 1.0
    s = math.sin(y)
    if abs(s) < 1e-12:
        return sign * m * math.cos(m * y) / math.cos(y)
    return sign * math.sin(m * y) / s


def gram_matrix(geom, angles):
    """`attack.gram_matrix` entry by entry, in the paper's closed form.

    g_lz = dirichlet_ratio(gap) * exp(1j*(M-1)*kappa*gap/2) with gap = sin(theta_l) - sin(theta_z);
    the diagonal is exactly M and g_zl = conj(g_lz) exactly. At (theta, theta_hat0, theta_hat1) the
    two-antenna coefficients b0, b1, d1 are [0,1], [0,2], [1,2], and c0, c1, d0 the transposed entries.
    """
    angles = list(angles)
    if len(angles) < 1:
        raise ValueError("need at least one angle")
    sines = [math.sin(a) for a in angles]
    size = len(angles)
    half_phase = 0.5 * (geom.num_elements - 1) * geom.wavenumber_scale
    g = np.empty((size, size), dtype=complex)
    for l in range(size):
        g[l, l] = geom.num_elements
        for z in range(l + 1, size):
            gap = sines[l] - sines[z]
            entry = dirichlet_ratio(geom, gap) * cmath.exp(1j * (half_phase * gap))
            g[l, z] = entry
            g[z, l] = entry.conjugate()
    return g


def mse_delta_single(geom, theta, theta_hat, beta, phi):
    """Deterministic MSE part for a single-antenna attacker with q = beta*e^{j*phi}."""
    m = geom.num_elements
    alpha = math.sin(theta) - math.sin(theta_hat)
    if alpha == 0.0:
        return m * ((beta - math.cos(phi)) ** 2 + math.sin(phi) ** 2)
    ratio = dirichlet_ratio(geom, alpha)
    psi = 0.5 * (m - 1) * geom.wavenumber_scale * alpha + phi
    return (beta * beta + 1.0) * m - 2.0 * beta * ratio * math.cos(psi)


def mse_gradient_single(geom, theta, theta_hat, beta, phi):
    """Analytic partials (d zeta / d beta, d zeta / d phi)."""
    m = geom.num_elements
    alpha = math.sin(theta) - math.sin(theta_hat)
    ratio = dirichlet_ratio(geom, alpha)
    psi = 0.5 * (m - 1) * geom.wavenumber_scale * alpha + phi
    dbeta = 2.0 * beta * m - 2.0 * ratio * math.cos(psi)
    dphi = 2.0 * beta * ratio * math.sin(psi)
    return dbeta, dphi


@dataclass(frozen=True)
class OptimalSinglePrecoder:
    beta_star: float
    phi_star: float
    branch: int  # integer u in phi = -(M-1)*kappa*alpha/2 + u*pi
    hessian_det: float
    zeta_at_opt: float


def optimal_single_precoder(geom, theta, theta_hat, noise=None):
    """Attacker precoder minimizing the single-antenna MSE.

    phi* = -(M-1)*kappa*alpha/2 + u*pi with the branch parity u chosen so
    beta* >= 0. With aligned (or sine-aliased) angles this degenerates to
    q = 1 and the noise floor. `zeta_at_opt` omits the noise floor when no
    noise model is given.
    """
    m = geom.num_elements
    alpha = math.sin(theta) - math.sin(theta_hat)
    ratio = dirichlet_ratio(geom, alpha)
    branch = 0 if ratio >= 0 else 1
    beta = abs(ratio) / m
    phi = (-0.5 * (m - 1) * geom.wavenumber_scale * alpha + branch * math.pi) % TWO_PI
    delta = max(mse_delta_single(geom, theta, theta_hat, beta, phi), 0.0)
    floor = noise.floor if noise is not None else 0.0
    return OptimalSinglePrecoder(
        beta_star=beta,
        phi_star=phi,
        branch=branch,
        hessian_det=4.0 * ratio * ratio,
        zeta_at_opt=delta + floor,
    )


def _noise_block(rng, num_elements, num_snapshots, snr):
    if math.isinf(snr):
        return np.zeros((num_elements, num_snapshots), dtype=complex)
    scale = math.sqrt(1.0 / (num_elements * snr) / 2.0)
    return scale * (
        rng.standard_normal((num_elements, num_snapshots))
        + 1j * rng.standard_normal((num_elements, num_snapshots))
    )


def synthesize_legitimate(geom, theta, noise, num_snapshots, seed):
    """`arrays.synthesize_legitimate`: a(theta) plus a `_noise_block` at the legitimate SNR."""
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    a = legitimate_wavefront(geom, theta)
    rng = np.random.default_rng(seed)
    samples = a[:, None] + _noise_block(rng, geom.num_elements, num_snapshots, noise.snr_legit)
    return SignalBlock(samples)


def synthesize_attack(geom, attacker, noise, num_snapshots, seed):
    """`arrays.synthesize_attack`: A q plus a `_noise_block` at the attacker's SNR."""
    if num_snapshots < 1:
        raise ValueError("num_snapshots must be >= 1")
    rng = np.random.default_rng(seed)
    samples = attack_wavefront(geom, attacker)[:, None] + _noise_block(
        rng, geom.num_elements, num_snapshots, noise.snr_attacker
    )
    return SignalBlock(samples)


def synthesize_covariance(geom, wavefront, snr, num_snapshots, seed):
    """`arrays.synthesize_covariance` of one covariance: the noise mean and the Bartlett factor of one draw."""
    m = geom.num_elements
    rng = np.random.default_rng(seed)
    var = 1.0 / (m * snr)
    k = min(m, num_snapshots - 1)
    rows, cols = np.tril_indices(m, -1, k)
    re, im = math.sqrt(0.5) * rng.standard_normal((2, m + rows.size))
    mean = wavefront + math.sqrt(var / num_snapshots) * (re[:m] + 1j * im[:m])
    factor = np.zeros((m, k), dtype=complex)
    factor[rows, cols] = re[m:] + 1j * im[m:]
    factor[np.arange(k), np.arange(k)] = np.sqrt(rng.standard_gamma(num_snapshots - 1 - np.arange(k)))
    return np.outer(mean, mean.conj()) + (var / num_snapshots) * (factor @ factor.conj().T)


class MonteCarloOracle(NamedTuple):
    """`monte_carlo_mse`'s result: mean and standard error, and how far the library may round away from each."""

    mean: np.ndarray
    stderr: np.ndarray
    mean_tol: np.ndarray
    stderr_tol: np.ndarray


def _gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff: the relative error bound of an n-term float dot product."""
    u = np.finfo(float).eps / 2.0
    return n * u / (1.0 - n * u)


def _pairwise_depth(n):
    """The most roundings any term takes in numpy's pairwise sum of n terms over a contiguous axis.

    Below 8 terms numpy adds them one by one to -0.0 (the first addition is
    exact); up to 128 it keeps 8 running sums of every eighth term, adds
    them in a three-level tree and then adds the n % 8 left over one by
    one; above 128 it sums two halves (the first a multiple of 8) and adds
    them.
    """
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(n - half))


def monte_carlo_mse(geom, theta, angles, precoders, noise, trials, seed):
    """`attack.monte_carlo_mse` point by point: ||d + w_t||^2 over one shared (trials, M, 2) draw w.

    Rounding bound, to first order in u. Write n = 2M, T = trials,
    F = noise.floor, s_t = ||w_t||^2, b_t = (||d|| + ||w_t||)^2,
    y_t = [w_t, s_t - F] and g = [2 d, 1], so that
    ||d + w_t||^2 = ||d||^2 + F + g.y_t, and rms(x) = sqrt(sum_t x_t^2 / (T - 1)).
    Both sides take the same draw w_t. The library sums y_t and y_t y_t^T
    over K chunks of at most c = `_DRAW_CHUNK` trials and forms
    C = sum_t y_t y_t^T - (sum_t y_t)(sum_t y_t)^T / T, the mean
    ||d||^2 + 2 d.wbar + sbar from zbar = sum_t y_t / T + [0, F] and the
    sample variance g^T C g / (T - 1). Each summation order sets a gamma:
    - numpy's pairwise sum of k terms over a contiguous axis rounds each
      term at most p(k) times (`_pairwise_depth`): this loop's mean and
      sum of squares over the T trials, and the library's sum over each
      chunk, which it adds one chunk after another into `total`, so each
      entry of `total` is within gamma_lam sum_t |y_ti| of exact,
      lam = K - 1 + the largest p(chunk length);
    - einsum's loop over one chunk adds at most c products in some order,
      gamma_c, and the chunks' products add one after another, so each
      entry of `co` is within gamma_(c+K-1) sum_t |y_ti| |y_tj| of exact;
    - a dot product of n terms, in any order, is within gamma_n of the
      dot product of the absolute values.
    Both sides form d = a - A q each with its own L-term complex sum, each
    within gamma_(L+3) (1 + ||q||_1) of the exact entry, so
    ||d - d_oracle|| <= eta = 2 gamma_(L+3) (1 + ||q||_1) sqrt(M) and the
    exact trial values differ by at most 2 eta sqrt(b_t). This loop's
    trial values are within gamma_(n+2) b_t of exact (one rounding of
    d + w_t, then an n-term dot product); the library's s_t - F is within
    e_t = gamma_n s_t + u |s_t - F| (an n-term dot product, then the
    subtraction), and its w_t are exact.

    Mean. The library's ||d||^2 is within gamma_n ||d||^2, each wbar_i
    within gamma_(lam+1) mean_t |w_ti| (the sum, then the division),
    2 d.wbar within 2 gamma_(n+lam+1) |d|.mean_t |w_t|, sbar within
    mean(e) + gamma_(lam+1) r + u sbar, r = mean_t |s_t - F|, and the two
    additions within gamma_2 of the sum of the three parts' sizes. As
    ||d||^2 + 2 |d|.|w_t| + s_t <= b_t, that is at most
    gamma_(n+lam+3) mean(b) + gamma_(lam+2) r. This loop's values add
    gamma_(n+2) mean(b) to its mean, and their sum and the division
    gamma_(p(T)+1) mean(b). So the means differ by at most
    gamma_(2n+lam+p(T)+6) mean(b) + gamma_(lam+2) r + 2 eta mean(sqrt(b)).

    Standard deviation. Four kinds of error, each bounded on its own:
    - Trial values. In exact arithmetic each side's sample standard
      deviation is the norm of its centred trial values over sqrt(T - 1),
      and the library's g^T C g is that squared norm for its own y_t, so
      values off by x_t move it by at most rms(x) (centring is a
      projection): at most gamma_(2n+2) rms(b) + u rms(s - F)
      + 2 eta rms(sqrt(b)), from e_t, this loop's values and d.
    - This loop's mean subtracted. It is off by at most
      eps = gamma_(p(T)+1) mean(b), which moves the norm by at most
      sqrt(T) eps, sqrt(2) eps over sqrt(T - 1).
    - The library's products and sums. Write B = sum_t (|g|.|y_t|)^2 and
      A_i = sum_t |y_ti|; by Cauchy-Schwarz (|g|.A)^2 <= T B. The co-moment
      sums move g^T C g by at most gamma_(c+K-1) B, the two roundings of
      `total` total^T / T and the errors of `total` by
      gamma_(2 lam+2) (|g|.A)^2 / T <= gamma_(2 lam+2) B, the subtraction
      from `co` by gamma_2 B, and the quadratic form
      4 d.(C_ww d + C_ws) + C_ss by gamma_(2n+2) sum_ij |g_i| |g_j| |C_ij|
      <= 2 gamma_(2n+2) B: Delta = gamma_(c+K+2 lam+4n+7) B in all. The
      clip at 0 only moves g^T C g towards its exact value, which is not
      negative. So the root of g^T C g / (T - 1) moves by at most
      Delta / ((T - 1) s), s its exact value, and s >= sigma / 2 for this
      loop's sample standard deviation sigma while the tightness asserts
      hold (they keep every other term below 1e-9 of sigma): at most
      2 Delta / ((T - 1) sigma).
    - The last roundings. This loop's squared deviations (gamma_3), their
      sum (gamma_p(T)), the division by T - 1, the root and the division
      by sqrt(T), and the library's two divisions and root, move the
      standard deviations by at most gamma_(p(T)+9) sigma in all.
    The standard errors are these sums over sqrt(T).
    """
    m = geom.num_elements
    n = 2 * m
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((trials, m, 2))
    w *= math.sqrt(noise.floor / m / 2.0)
    sq = np.einsum("tmc,tmc->t", w, w)
    shifted = np.abs(sq - noise.floor)
    chunk = min(trials, attack._DRAW_CHUNK)
    num_chunks = -(-trials // chunk)
    lam = num_chunks - 1 + max(_pairwise_depth(chunk), _pairwise_depth(trials - (num_chunks - 1) * chunk))
    depth = _pairwise_depth(trials)
    theta, angles, precoders = np.broadcast_arrays(
        np.asarray(theta, dtype=float)[..., None], np.asarray(angles, dtype=float), np.asarray(precoders, dtype=complex)
    )
    out = MonteCarloOracle(*(np.empty(theta.shape[:-1]) for _ in range(4)))
    for idx in np.ndindex(theta.shape[:-1]):
        diff = steering_vector(geom, theta[idx][0]) - precoders[idx] @ steering_vector(geom, angles[idx])
        d = np.stack([diff.real, diff.imag], axis=-1)
        vals = np.einsum("tmc,tmc->t", w + d, w + d)
        b = (math.sqrt(np.einsum("mc,mc->", d, d)) + np.sqrt(sq)) ** 2
        eta = 2.0 * _gamma(len(precoders[idx]) + 3) * (1.0 + np.sum(np.abs(precoders[idx]))) * math.sqrt(m)
        out.mean[idx] = np.mean(vals)
        out.stderr[idx] = np.std(vals, ddof=1) / math.sqrt(trials)
        out.mean_tol[idx] = (
            _gamma(2 * n + lam + depth + 6) * np.mean(b)
            + _gamma(lam + 2) * np.mean(shifted)
            + 2.0 * eta * np.mean(np.sqrt(b))
        )
        rms_b, rms_root_b, rms_shifted = (math.sqrt(np.sum(x**2) / (trials - 1)) for x in (b, np.sqrt(b), shifted))
        mass = np.sum((np.einsum("mc,tmc->t", 2.0 * np.abs(d), np.abs(w)) + shifted) ** 2)  # B
        sigma = out.stderr[idx] * math.sqrt(trials)
        products = 2.0 * _gamma(chunk + num_chunks + 2 * lam + 4 * n + 7) * mass / (trials - 1) / sigma if mass else 0.0
        out.stderr_tol[idx] = (
            _gamma(2 * n + 2) * rms_b
            + _gamma(1) * rms_shifted
            + 2.0 * eta * rms_root_b
            + math.sqrt(2.0) * _gamma(depth + 1) * np.mean(b)
            + products
            + _gamma(depth + 9) * sigma
        ) / math.sqrt(trials)
    return out


def fig3_sim(config):
    """fig3's `monte_carlo_mse` oracle over its (beta pair, phi) grid, from the figure's one stream."""
    p = config.params()
    phis = np.linspace(0.0, TWO_PI, p["phi_points"])
    betas = np.asarray(p["beta_pairs"], dtype=float)
    precoders = _precoders(betas[:, None, :], phis[:, None])
    return monte_carlo_mse(
        ArrayGeometry(p["num_rx_antennas"]), p["theta"], (p["theta"], p["theta"]), precoders,
        NoiseModel.from_db(p["snr_db"]), p["trials"], derive_rng(config.seed),
    )


def fig7_sim(config):
    """fig7's `monte_carlo_mse` oracle, aligned (row 0) and misaligned (row 1), from the figure's one stream."""
    p = config.params()
    nums = p["num_attacker_antennas"]
    angles = np.array([p["theta"], p["theta"] + p["angle_gap"]])[:, None, None]
    return monte_carlo_mse(
        ArrayGeometry(p["num_rx_antennas"]), p["theta"], angles, _best_case_precoders(nums),
        NoiseModel.from_db(p["snr_db"]), p["trials"], derive_rng(config.seed),
    )
