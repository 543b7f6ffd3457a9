"""AoA estimation via the MUSIC pseudospectrum, from a signal block, a covariance or a stack of covariances."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import steering_vector

DEFAULT_GRID_STEP = 0.001
_HERMITIAN_TOL = 1e-12
_TINY = np.finfo(float).tiny
# grid points per cell of `one_source_estimates`' bounded scan
_COARSE_STEP = 16


class DegenerateSpectrumError(RuntimeError):
    """Raised when the pseudospectrum has fewer local maxima than sources."""


class NonHermitianError(ValueError):
    """Input matrix violates the Hermitian contract."""


def sample_covariance(block):
    """(1/N) * sum_i x_i x_i^H over the snapshot columns. Hermitian PSD.

    Finite samples can still overflow it; the non-finite entries that
    result are `hermitian_eig`'s to reject, so numpy does not warn of them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (block.samples @ block.samples.conj().T) / block.num_snapshots


def hermitian_eig(mat):
    """Eigendecomposition of a Hermitian matrix, or of each in a (..., M, M) stack.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns),
    with the stack's leading axes. Rejects a stack with an entry of
    non-finite magnitude, and one in which any matrix's Hermitian defect
    exceeds `_HERMITIAN_TOL` relative to that matrix's largest entry
    magnitude, reporting the first such matrix.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1)))
    if not np.isfinite(scale).all():
        raise ValueError("expected finite entries, got one of non-finite magnitude")
    defect = np.abs(mat - mat.swapaxes(-1, -2).conj()).max(axis=(-2, -1))
    bad = (defect > _HERMITIAN_TOL * scale).ravel().nonzero()[0]
    if bad.size:
        first = bad[0]
        raise NonHermitianError(
            f"Hermitian defect {defect.flat[first]:.3e} exceeds tolerance {_HERMITIAN_TOL * scale.flat[first]:.3e}"
        )
    return np.linalg.eigh(mat)


@dataclass(frozen=True)
class MusicSpectrum:
    """Angle grid, pseudospectrum heights, and detected peaks.

    peaks is a list of (angle, height) sorted by descending height; ties
    break toward the smaller angle.
    """

    grid: np.ndarray
    values: np.ndarray
    peaks: list


def _angle_grid(step, half_width):
    """Multiples of `step` covering [-half_width, half_width].

    Anchoring at zero keeps round decimal angles exactly representable on
    the grid.
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"grid_step must be positive and finite, got {step!r}")
    kmax = int(math.floor(half_width / step))
    return step * np.arange(-kmax, kmax + 1)


class _GridTables(NamedTuple):
    """The cached, read-only tables of one (geometry, grid step); see `_grid_tables`."""

    grid: np.ndarray
    manifold: np.ndarray
    conj_columns: np.ndarray
    rise: np.ndarray
    spans: np.ndarray


@functools.lru_cache(maxsize=8)
def _grid_tables(geom, grid_step):
    """The angle grid, its steering manifold and the bounded scan's tables, built once per (geometry, step).

    `ArrayGeometry` hashes and compares by (num_elements, spacing), so the
    key is (M, spacing, grid_step). Every array is shared, so read-only.
    - `grid`: `_angle_grid(grid_step, pi / 2)`; `manifold`: the M x grid
      steering manifold, column g `steering_vector(geom, grid[g])` bit for bit.
    - `conj_columns`: the conjugate manifold at the coarse points, grid
      indices 0, K, 2K, ... and the last one (K = `_COARSE_STEP`), one row
      each; cell j lies between coarse points j and j + 1.
    - `rise`: per cell of sine width w, kappa (M - 1) M w / 2 + 2 `_rounding_allowance`.
      g - M/2, g = |u^H a|^2, is a trigonometric polynomial of degree M - 1
      in kappa sin(angle) and at most M/2 in magnitude, so by Bernstein's
      inequality no g in the cell exceeds (g_j + g_(j+1) + kappa (M - 1) M w / 2) / 2,
      and a cell can reach g_best only if g_j + g_(j+1) + rise >= 2 g_best.
    - `spans`: per cell, the grid indices from one before its first point
      to one after its last, clipped to the grid.
    A grid of 2 to K + 1 points is one cell; a grid of one point has no cell.
    """
    grid = _angle_grid(grid_step, math.pi / 2)
    manifold = np.ascontiguousarray(steering_vector(geom, grid).T)
    last = grid.size - 1
    points = np.append(np.arange(0, last, _COARSE_STEP), last)
    m, kappa = geom.num_elements, geom.wavenumber_scale
    rise = kappa * (m - 1) * m / 2 * np.diff(np.sin(grid[points])) + 2.0 * _rounding_allowance(m, kappa)
    spans = _COARSE_STEP * np.arange(points.size - 1)[:, None] + np.arange(-1, _COARSE_STEP + 2)
    tables = _GridTables(grid, manifold, np.ascontiguousarray(manifold[:, points].conj().T), rise, np.clip(spans, 0, last))
    for table in tables:
        table.setflags(write=False)
    return tables


def _peak_mask(values):
    """Strict local maxima along the last axis; an end point needs only exceed its one neighbour."""
    v = values
    mask = np.zeros(v.shape, dtype=bool)
    if v.shape[-1] >= 2:
        mask[..., 0] = v[..., 0] > v[..., 1]
        mask[..., -1] = v[..., -1] > v[..., -2]
    if v.shape[-1] >= 3:
        mask[..., 1:-1] = (v[..., 1:-1] > v[..., :-2]) & (v[..., 1:-1] > v[..., 2:])
    return mask


def _find_peaks(grid, values):
    """(angle, height) of each `_peak_mask` peak, by descending height; ties go to the smaller angle."""
    peaks = [(float(grid[i]), float(values[i])) for i in np.flatnonzero(_peak_mask(values))]
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks


def _gains(signal_basis, manifold):
    """||E_s^H a||^2 for each manifold column a, for (..., M, k) signal bases E_s; shape (..., columns).

    The product runs in numpy's einsum loop, not BLAS: it adds each
    column's M terms in one fixed order whatever the other columns, the
    stack or the thread count, so a column's gain has the same bits in any
    subset of the grid as in the whole grid, and in a stack as alone. A
    BLAS product does not: its tail columns and thread splits take
    another order.
    """
    proj = np.einsum("...mk,mg->...kg", signal_basis.conj(), manifold)
    return (proj.real**2 + proj.imag**2).sum(axis=-2)


def _heights(signal_basis, manifold):
    """Pseudospectrum 1 / max(M - ||E_s^H a||^2, tiny) at the manifold's columns, for (..., M, k) signal bases E_s.

    `manifold` is the whole grid's (`pseudospectrum`, a tie in
    `one_source_estimates`) or a subset of its columns (the bounded scan
    of `one_source_estimates`); `_gains` makes each height the same bits
    either way.
    """
    return 1.0 / np.maximum(manifold.shape[0] - _gains(signal_basis, manifold), _TINY)


def _signal_eig(mat, geom, num_sources):
    """`hermitian_eig` of a covariance or a (..., M, M) stack, after the checks every MUSIC estimate makes."""
    m = geom.num_elements
    if num_sources >= m:
        raise ValueError(f"num_sources ({num_sources}) must be < num_elements ({m})")
    if num_sources < 1:
        raise ValueError("num_sources must be >= 1")
    vals, vecs = hermitian_eig(mat)
    if vals.shape[-1] != m:
        raise ValueError(f"covariance is {vals.shape[-1]} x {vals.shape[-1]}, the array has {m} elements")
    return vals, vecs


def _undetermined(vals, num_sources):
    """Where the num_sources largest eigenvalues do not separate from the rest (gap at most
    `_HERMITIAN_TOL` times the largest eigenvalue), so the signal subspace is undetermined."""
    m = vals.shape[-1]
    gap = vals[..., m - num_sources] - vals[..., m - num_sources - 1]
    return gap <= _HERMITIAN_TOL * np.maximum(vals[..., -1], 0.0)


def pseudospectrum(mat, geom, grid_step=DEFAULT_GRID_STEP, num_sources=1):
    """MUSIC pseudospectrum 1 / ||E_n^H a||^2 of one covariance `mat` over the angle grid, with its peaks.

    E_n spans the M - num_sources eigenvectors with the smallest
    eigenvalues. The denominator is computed from the num_sources principal
    eigenvectors E_s as M - ||E_s^H a||^2 (`_heights`), the same quantity
    (``||a||^2 = M``) at num_sources x M x grid cost, to rounding of order
    1e-15 * M. When the num_sources largest eigenvalues do not separate
    from the rest (`_undetermined`, as for a zero or an identity matrix)
    the signal subspace is undetermined: every height is
    1 / (M - num_sources), which has no strict local maximum. `grid` is the
    cached, read-only grid of `_grid_tables`.
    """
    if np.ndim(mat) != 2:
        raise ValueError(f"expected one covariance matrix, got shape {np.shape(mat)}")
    vals, vecs = _signal_eig(mat, geom, num_sources)
    tables = _grid_tables(geom, grid_step)
    m = geom.num_elements
    values = _heights(vecs[:, m - num_sources :], tables.manifold)
    if _undetermined(vals, num_sources):
        values[:] = 1.0 / (m - num_sources)
    return MusicSpectrum(grid=tables.grid, values=values, peaks=_find_peaks(tables.grid, values))


def peak_angles(spectrum, num_sources):
    """Angles of the num_sources highest peaks of `spectrum`, in descending height.

    Raises DegenerateSpectrumError when it has fewer peaks than that.
    """
    if len(spectrum.peaks) < num_sources:
        raise DegenerateSpectrumError(
            f"found {len(spectrum.peaks)} local maxima, need {num_sources}"
        )
    return [angle for angle, _ in spectrum.peaks[:num_sources]]


def estimate_aoa_from_covariance(mat, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """The num_sources highest pseudospectrum peaks of the covariance `mat`, in descending height."""
    return peak_angles(pseudospectrum(mat, geom, grid_step, num_sources), num_sources)


def _rounding_allowance(m, kappa):
    """Rounding slack of the bounded scan's cell test, in units of g = |u^H a|^2, from M and eps alone.

    With eps the float64 machine epsilon and slope = kappa (M - 1) M / 2,
    the Bernstein bound on g's slope in sin(angle) (`_grid_tables`' `rise`):
    - a manifold entry exp(-1j kappa m sin(angle)) is within
      3 kappa (M - 1) eps + 3 eps of the exact response at that grid angle
      (phase, then exp), and an M-term complex dot product adds
      2 (M + 2) eps per unit of sum |u_m| <= sqrt(M); so a computed g, by
      BLAS or by einsum, is within `value` = M (2 beta + 4 eps) of the g of
      the exact response, beta = (3 kappa (M - 1) + 2 M + 7) eps;
    - eigh's unit vector has ||u||^2 <= 1 + 4 M eps, which scales g, and so
      |g - M/2|'s bound and the slope, by that factor over a cell of sine
      width at most 2, and a computed sine width is within 3 eps of the
      exact one: slope (4 M + 1.5) eps once the cell bound halves them;
    - forming the cell bound adds at most 4 eps (M + slope);
    - a skipped point's g must end 4 M eps below the best coarse point's
      for its height to compare strictly lower after `M - g` and `1 / d`.
    A skipped point meets four value errors: its own, the cell's two
    coarse ends (halved, twice) and the best coarse point's two.
    """
    eps = np.finfo(float).eps
    slope = kappa * (m - 1) * m / 2
    value = m * (2.0 * (3.0 * kappa * (m - 1) + 2 * m + 7) * eps + 4.0 * eps)
    return 4.0 * value + slope * (4 * m + 1.5) * eps + 4.0 * eps * (m + slope) + 4.0 * m * eps


def one_source_estimates(covs, geom, grid_step=DEFAULT_GRID_STEP):
    """One-source MUSIC estimates of a covariance or a (..., M, M) stack, shape (...).

    The highest `_peak_mask` peak of each row's pseudospectrum, the first
    on a tie (the smaller angle). Each entry equals
    `estimate_aoa_from_covariance(cov, geom, 1, grid_step)[0]`, and is nan
    where that raises DegenerateSpectrumError: the spectrum has no strict
    local maximum, as when its signal subspace is undetermined.

    The grid is not scanned whole. g = |u^H a|^2, u the principal
    eigenvector, is a trigonometric polynomial of degree M - 1 in
    kappa sin(angle) with |g - M/2| <= M/2, so by Bernstein's inequality
    its slope in sin(angle) is at most kappa (M - 1) M / 2. g is taken at
    every `_COARSE_STEP`-th grid point, and only the cells that this bound
    lets reach a row's best coarse value (for any row of the stack) are
    scanned in full, one neighbour past each end, with `_heights` on the
    union of those columns (`_grid_tables`' `spans`, marked in one mask):
    every height elsewhere is strictly lower. Where a row's first maximum
    among them is a strict local maximum, it is the row's estimate. Two
    rules need no heights: a one-point grid has no strict peak, and a row
    whose subspace is undetermined (`_undetermined`) has a flat spectrum;
    both are nan. A determined row whose maximum ties its right neighbour
    (as on a plateau) takes the peaks of its whole spectrum, one row at a
    time, and an empty stack gives an empty array.
    """
    vals, vecs = _signal_eig(covs, geom, 1)
    tables = _grid_tables(geom, grid_step)
    grid, m, shape = tables.grid, geom.num_elements, vals.shape[:-1]
    if grid.size == 1 or not vals.size:
        return np.full(shape, np.nan)
    vals, basis = vals.reshape(-1, m), vecs.reshape(-1, m, m)[..., -1:]
    # coarse g by BLAS: the bound needs only its rounding, which `rise` allows for, not its bits
    coarse = np.abs(tables.conj_columns @ basis)[..., 0] ** 2
    reach = coarse[:, :-1] + coarse[:, 1:] + tables.rise >= 2.0 * coarse.max(axis=1, keepdims=True)
    scanned = np.zeros(grid.size, dtype=bool)
    scanned[tables.spans[reach.any(axis=0)]] = True
    cols = scanned.nonzero()[0]
    heights = _heights(basis, tables.manifold[:, cols])
    # every height outside `cols` is below the best coarse point's, which is inside, and so is a run's
    # outer point: the first maximum is the grid's, its neighbours in `cols` are its grid neighbours, the
    # left one is lower, and it is a strict peak unless the right one ties it (the last point has none)
    top = heights.argmax(axis=1)
    rows, at = np.arange(len(top)), cols[top]
    strict = heights[rows, np.minimum(top + 1, cols.size - 1)] < heights[rows, top]
    strict |= at == grid.size - 1
    determined = ~_undetermined(vals, 1)
    est = np.where(strict & determined, grid[at], np.nan)
    for row in np.flatnonzero(~strict & determined):
        peaks = _find_peaks(grid, _heights(basis[row], tables.manifold))
        est[row] = peaks[0][0] if peaks else np.nan
    return est.reshape(shape)


def estimate_aoa(block, geom, num_sources=1, grid_step=DEFAULT_GRID_STEP):
    """`estimate_aoa_from_covariance` of the block's sample covariance."""
    return estimate_aoa_from_covariance(sample_covariance(block), geom, num_sources, grid_step)
