"""Deterministic scenario runs reproducing the headline simulation figures.

Each figure is one `FIGURES` entry: its default parameters, the runner that
sweeps its scenario into named columns, the automated checks on the numbers
it produced, and its plot layout. Every runner hands its columns to
`_table`, the one place that lays them out as one record array with complete
metadata. CSV output is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, svgfig
from .arrays import (
    TWO_PI, ArrayGeometry, AttackerConfig, NoiseModel, _check_legitimate_angle, _precoders, derive_rng, steering_vector,
)
from .attack import monte_carlo_mse, mse_delta
from .auth import trial_estimates
from .music import _angle_grid, _find_peaks


def _shape(value):
    """Nesting of a figure parameter: 'a scalar', 'a flat tuple' or 'a tuple of pairs'.

    Any other nesting is 'a nested tuple' and an empty tuple is 'an empty
    tuple'; no default has either, so an override of that shape is always
    rejected.
    """
    if not isinstance(value, (tuple, list)):
        return "a scalar"
    if not value:
        return "an empty tuple"
    shapes = {_shape(v) for v in value}
    if shapes <= {"a scalar"}:
        return "a flat tuple"
    if shapes == {"a flat tuple"} and all(len(v) == 2 for v in value):
        return "a tuple of pairs"
    return "a nested tuple"


def _entries(value):
    return value if isinstance(value, (tuple, list)) else (value,)


@dataclass(frozen=True)
class ExperimentConfig:
    figure_id: str
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    output_dir: str = "."

    def __post_init__(self):
        if self.figure_id not in FIGURES:
            raise ValueError(f"unknown figure_id {self.figure_id!r}; expected one of {FIGURE_IDS}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        spec = FIGURES[self.figure_id]
        known = spec.defaults
        for key, value in self.overrides.items():
            if key not in known:
                raise ValueError(
                    f"unknown override {key!r} for {self.figure_id}; "
                    f"known parameters: {sorted(known)}"
                )
            if _shape(value) != _shape(known[key]):
                raise ValueError(
                    f"override {key!r} for {self.figure_id} must be {_shape(known[key])}, "
                    f"got {_shape(value)} {value!r}"
                )
            # a parameter whose default is an int, or a tuple of ints, is a count
            is_count = all(isinstance(v, int) for v in _entries(known[key]))
            least = dict(spec.least).get(key, 1)
            if is_count and not all(isinstance(v, numbers.Integral) and v >= least for v in _entries(value)):
                raise ValueError(
                    f"override {key!r} for {self.figure_id} takes integers >= {least}, got {value!r}"
                )
            # theta and thetas hold the legitimate transmitter's angle
            for angle in _entries(value) if key in ("theta", "thetas") else ():
                _check_legitimate_angle(angle, f"legitimate angle override {key!r} for {self.figure_id}")
            # a repeated sweep point would write duplicate rows and fold two curves into one
            if key in spec.sweep_axes and len({tuple(_entries(v)) for v in value}) != len(value):
                raise ValueError(f"override {key!r} for {self.figure_id} repeats a sweep point: {value!r}")

    def params(self):
        resolved = dict(FIGURES[self.figure_id].defaults)
        resolved.update(self.overrides)
        return resolved


@dataclass
class ResultTable:
    """A figure's columns as one numpy record array: `rows[i]` is row i, `rows[name]` a column view."""
    columns: list
    rows: np.recarray
    metadata: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _table(config, params, columns):
    """ResultTable of a runner's ordered {column name: array-like} mapping.

    Each value is flattened in C order into one int64 or float64 field of a
    record array; unequal lengths raise ValueError. The metadata is the
    figure id, seed, version and every resolved parameter.
    """
    rows = np.rec.fromarrays([np.ravel(values) for values in columns.values()], names=list(columns))
    meta = {"figure_id": config.figure_id, "seed": config.seed, "version": __version__, **params}
    return ResultTable(list(columns), rows, meta)


# rows formatted and written at a time; the texts of one chunk are all that is held
_CSV_CHUNK_ROWS = 2048


def write_csv(table, path):
    """Comma-separated table with `#`-prefixed metadata comment lines.

    Each cell prints as `str` of its Python scalar (`tolist()`), so a float
    prints its shortest round-trip repr. The rows are written in chunks,
    and within a chunk a float64 field is formatted once per distinct bit
    pattern (so -0.0 and 0.0, and NaN payloads, stay apart).
    """
    with open(path, "w") as out:
        out.write("".join(f"# {key} = {table.metadata[key]}\n" for key in sorted(table.metadata)))
        out.write(",".join(table.columns) + "\n")
        for start in range(0, len(table.rows), _CSV_CHUNK_ROWS):
            chunk = table.rows[start : start + _CSV_CHUNK_ROWS]
            out.write("\n".join(map(",".join, zip(*(_cell_texts(chunk[name]) for name in table.columns)))) + "\n")


def _cell_texts(cells):
    """`str` of each cell of one field, one call per distinct float64 bit pattern."""
    if cells.dtype != np.float64:
        return list(map(str, cells.tolist()))
    bits, index = np.unique(cells.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[index].tolist()


def _column(table, name):
    if name not in table.columns:
        raise KeyError(f"unknown column {name!r}; table has {table.columns}")
    return table.rows[name]


def _grid(xs, ys, zs):
    """(x axis, y axis, z) of rows covering a rectangular (x, y) grid; z[iy, ix].

    Both axes come out sorted. A repeated (x, y) pair keeps its last z.
    """
    x_axis, ix = np.unique(xs, return_inverse=True)
    y_axis, iy = np.unique(ys, return_inverse=True)
    z = np.empty((len(y_axis), len(x_axis)))
    z[iy, ix] = zs
    filled = np.zeros(z.shape, dtype=bool)
    filled[iy, ix] = True
    if not filled.all():
        raise ValueError("the (x, y) pairs do not cover a rectangular grid")
    return x_axis, y_axis, z


def _best_case_precoders(nums):
    """Precoders of best-case attackers of every size in `nums`, one row each.

    The best case for L antennas puts all of them at one angle with
    precoders 1/L, summing to 1. Row i holds nums[i] precoders 1/nums[i],
    padded to max(nums) with zero-precoder antennas, which add nothing to
    the wavefront.
    """
    precoders = np.zeros((len(nums), max(nums)))
    for i, num in enumerate(nums):
        precoders[i, :num] = 1.0 / num
    return precoders


# --------------------------------------------------------------------------
# figure runners


def run_fig2(config):
    """Mean MUSIC estimates for Alice and Eve across SNR and array size."""
    p = config.params()
    attacker = AttackerConfig((p["theta_hat"], p["theta_hat"]), (0.5, 0.5))
    points = list(itertools.product(p["num_rx_antennas"], p["snr_db"]))
    # est[point, side, trial]; a degenerate trial is nan, so its point's means are nan, and it is counted
    est = np.stack([
        trial_estimates(
            ArrayGeometry(m), p["theta"], attacker, NoiseModel.from_db(snr_db), p["num_snapshots"], p["grid_step"],
            p["trials"], (config.seed, point),
        )
        for point, (m, snr_db) in enumerate(points)
    ])
    ms, snrs = zip(*points)
    return _table(config, p, {
        "snr_db": np.asarray(snrs, dtype=float),
        "num_rx_antennas": ms,
        "mean_est_alice_rad": np.mean(est[:, 0], axis=1),
        "mean_est_eve_rad": np.mean(est[:, 1], axis=1),
        "frac_trials_est_within_0.1rad": np.mean(np.abs(est[:, 0] - est[:, 1]) < 0.1, axis=1),
        "degenerate_alice": np.sum(np.isnan(est[:, 0]), axis=1),
        "degenerate_eve": np.sum(np.isnan(est[:, 1]), axis=1),
    })


def _check_fig2(table):
    p = table.metadata
    snr = _column(table, "snr_db")
    m = _column(table, "num_rx_antennas")
    ma = _column(table, "mean_est_alice_rad")
    me = _column(table, "mean_est_eve_rad")
    frac = _column(table, "frac_trials_est_within_0.1rad")
    results = []
    hi = np.flatnonzero((snr == 15.0) & (m == 16))
    if hi.size:
        i = hi[0]
        ok = abs(ma[i] - p["theta"]) <= 0.01 and abs(me[i] - p["theta_hat"]) <= 0.01
        results.append(
            CheckResult(
                "high_snr_estimates_accurate",
                bool(ok),
                f"alice={ma[i]:.5f} eve={me[i]:.5f} at 15 dB, M=16",
            )
        )
    lo = np.flatnonzero((snr == -10.0) & (m == 2))
    if lo.size:
        i = lo[0]
        results.append(
            CheckResult(
                "low_snr_estimates_similar",
                bool(frac[i] > 0.5),
                f"fraction of trials with |est_alice - est_eve| < 0.1: {frac[i]:.3f} at -10 dB, M=2",
            )
        )
    return results


def run_fig3(config):
    """Theoretical and simulated MSE vs the shared precoder phase phi0."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    noise = NoiseModel.from_db(p["snr_db"])
    phis = np.linspace(0.0, TWO_PI, p["phi_points"])
    betas = np.asarray(p["beta_pairs"], dtype=float)
    # theory[pair_idx, k], sim and stderr over the (beta pair, phi) grid
    # the pairs go in as given, so that a negative amplitude is reported as typed; the phi axis comes out first
    amplitudes = f"precoder amplitudes in 'beta_pairs' for {config.figure_id}"
    precoders = np.swapaxes(_precoders(p["beta_pairs"], phis[:, None, None], amplitudes), 0, 1)
    angles = (p["theta"], p["theta"])
    theory = mse_delta(geom, p["theta"], angles, precoders) + noise.floor
    sim, stderr = monte_carlo_mse(geom, p["theta"], angles, precoders, noise, p["trials"], derive_rng(config.seed))
    return _table(config, p, {
        "phi0_rad": np.broadcast_to(phis, theory.shape),
        "beta0": np.broadcast_to(betas[:, :1], theory.shape),
        "beta1": np.broadcast_to(betas[:, 1:], theory.shape),
        "zeta_theory": theory,
        "zeta_sim": sim,
        "zeta_sim_stderr": stderr,
    })


def _check_fig3(table):
    p = table.metadata
    phi = _column(table, "phi0_rad")
    b0 = _column(table, "beta0")
    b1 = _column(table, "beta1")
    theory = _column(table, "zeta_theory")
    sim = _column(table, "zeta_sim")
    floor = NoiseModel.from_db(p["snr_db"]).floor
    results = []
    unit = np.abs(b0 + b1 - 1.0) <= 1e-12
    if np.any(unit):
        at_zero = unit & (phi == 0.0)
        ok = bool(np.all(np.abs(theory[at_zero] - floor) <= 1e-9))
        results.append(
            CheckResult(
                "noise_floor_at_phi_zero", ok, f"theory={float(theory[at_zero][0])!r} floor={floor!r}"
            )
        )
        ths = theory[unit]
        sms = sim[unit]
        phs = phi[unit]
        boundary = {float(phs[int(np.argmin(ths))]), float(phs[int(np.argmin(sms))])}
        ok = boundary <= {0.0, float(phs[-1])}
        results.append(CheckResult("argmin_at_boundary", ok, f"argmin phis: {sorted(boundary)}"))
    gap = float(np.max(np.abs(theory - sim) / theory))
    results.append(CheckResult("theory_sim_gap_2pct", gap <= 0.02, f"max relative gap {gap:.4%}"))
    return results


def run_fig3d(config):
    """Closed-form MSE surface over the (phi0, phi1) phase grid."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    noise = NoiseModel.from_db(p["snr_db"])
    phis = np.linspace(0.0, TWO_PI, p["phi_points"])
    phi0, phi1 = np.meshgrid(phis, phis, indexing="ij")
    # the precoder grid is a temporary, freed before the rows are built
    amplitudes = f"precoder amplitudes in 'betas' for {config.figure_id}"
    zeta = mse_delta(
        geom, p["theta"], p["theta_hats"], _precoders(p["betas"], np.stack([phi0, phi1], axis=-1), amplitudes)
    )
    zeta += noise.floor
    return _table(config, p, {"phi0_rad": phi0, "phi1_rad": phi1, "zeta": zeta})


def _circular_dist(phi):
    return min(abs(phi), TWO_PI - abs(phi))


def _check_fig3d(table):
    """`swap_symmetry` if the two antennas are interchangeable, else `swap_asymmetry`; the minimum's phases.

    Interchangeable means that b_i = beta_i a(theta_hat_i) agree to 1e-12 per
    element: equal betas and steering vectors, as on a sine alias such as
    (0.39, pi - 0.39), whose vectors differ by 1.1e-14, or both betas 0.
    """
    p = table.metadata
    phi0 = _column(table, "phi0_rad")
    phi1 = _column(table, "phi1_rad")
    zeta = _column(table, "zeta")
    # phi0 and phi1 share one axis, so swapping the phases transposes the grid
    _, _, surface = _grid(phi0, phi1, zeta)
    swap_defect = float(np.max(np.abs(surface - surface.T)))
    b0, b1 = np.asarray(p["betas"])[:, None] * steering_vector(ArrayGeometry(p["num_rx_antennas"]), p["theta_hats"])
    detail = f"max |zeta(a,b)-zeta(b,a)| = {swap_defect:.3e}"
    if np.max(np.abs(b0 - b1)) <= 1e-12:
        results = [CheckResult("swap_symmetry", swap_defect <= 1e-12, detail)]
    else:
        results = [CheckResult("swap_asymmetry", swap_defect > 1e-6, detail)]
    # the first minimum in row order: the four corner phases tie on the grid
    imin = int(np.argmin(zeta))
    d0, d1 = _circular_dist(float(phi0[imin])), _circular_dist(float(phi1[imin]))
    results.append(
        CheckResult(
            "minimum_near_zero_phases",
            max(d0, d1) <= 0.35,
            f"argmin at (phi0, phi1) = ({phi0[imin]:.3f}, {phi1[imin]:.3f})",
        )
    )
    return results


def run_fig5(config):
    """Closed-form MSE vs attacker SNR for several attacker array sizes."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    nums = p["num_attacker_antennas"]
    deltas = mse_delta(geom, p["theta"], p["theta"], _best_case_precoders(nums))
    floors = np.array([NoiseModel.from_db(p["snr_alice_db"], snr_eve_db).floor for snr_eve_db in p["snr_eve_db"]])
    # one row per (attacker size, attacker SNR), sizes outermost
    num, snr_eve = np.meshgrid(nums, np.asarray(p["snr_eve_db"], dtype=float), indexing="ij")
    return _table(config, p, {
        "snr_eve_db": snr_eve, "num_attacker_antennas": num, "zeta": deltas[:, None] + floors,
    })


def _check_fig5(table):
    p = table.metadata
    snr = _column(table, "snr_eve_db")
    num = _column(table, "num_attacker_antennas")
    zeta = _column(table, "zeta")
    # z[L, SNR], both axes sorted
    _, _, z = _grid(snr, num, zeta)
    results = [CheckResult("zeta_decreasing_in_snr_eve", bool(np.all(np.diff(z, axis=1) < 0)))]
    spread = float(np.max(np.ptp(z, axis=0)))
    results.append(CheckResult("curves_coincide_across_L", spread <= 1e-12, f"max spread {spread:.3e}"))
    ref = zeta[snr == p["snr_alice_db"]]
    if ref.size:
        expected = 2.0 * 10.0 ** (-p["snr_alice_db"] / 10.0)
        ok = bool(np.all(np.abs(ref - expected) <= 1e-9))
        results.append(CheckResult("equal_snr_point_noise_floor", ok, f"expected {expected!r}"))
    return results


def run_fig6(config):
    """Closed-form MSE vs the shared attacker angle over [-pi, pi]."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    noise = NoiseModel.from_db(p["snr_db"])
    grid = _angle_grid(p["grid_step"], math.pi)
    precoders = _best_case_precoders((p["num_attacker_antennas"],))
    # zeta[grid point, theta]
    zeta = mse_delta(geom, p["thetas"], grid[:, None, None], precoders) + noise.floor
    return _table(config, p, {
        "theta_hat_e_rad": grid, **{f"zeta_theta_{theta}": zeta[:, i] for i, theta in enumerate(p["thetas"])},
    })


def _check_fig6(table):
    p = table.metadata
    grid = _column(table, "theta_hat_e_rad")
    theta = p["thetas"][0]
    zeta = _column(table, f"zeta_theta_{theta}")
    floor = 2.0 * 10.0 ** (-p["snr_db"] / 10.0)
    results = []
    # the minima of zeta are the peaks of -zeta, lowest zeta first
    lowest_two = sorted(angle for angle, _ in _find_peaks(grid, -zeta)[:2])
    expect = sorted(float(grid[np.argmin(np.abs(grid - t))]) for t in (theta, math.pi - theta))
    results.append(
        CheckResult("alias_minima_locations", lowest_two == expect, f"minima at grid angles {lowest_two}")
    )
    err = abs(float(np.min(zeta)) - floor)
    results.append(CheckResult("minimum_is_noise_floor", err <= 1e-12, f"|min - {floor!r}| = {err:.3e}"))
    geom = ArrayGeometry(p["num_rx_antennas"])
    probes = grid[:: max(len(grid) // 64, 1)]
    precoders = _best_case_precoders((p["num_attacker_antennas"],))
    # the noise floor cancels in zeta(t) - zeta(pi - t)
    defects = mse_delta(geom, theta, probes[:, None], precoders) - mse_delta(
        geom, theta, (math.pi - probes)[:, None], precoders
    )
    sym_defect = float(np.max(np.abs(defects)))
    results.append(
        CheckResult("sine_alias_symmetry", sym_defect <= 1e-12, f"max |zeta(t) - zeta(pi-t)| = {sym_defect:.3e}")
    )
    return results


def _fig7_attackers(p, nums):
    """(angles, precoders) of fig7's best-case attackers, aligned (row 0) and misaligned (row 1), of every size in `nums`."""
    return np.array([p["theta"], p["theta"] + p["angle_gap"]])[:, None, None], _best_case_precoders(nums)


def run_fig7(config):
    """MSE vs attacker antenna count, aligned and misaligned with Alice."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    noise = NoiseModel.from_db(p["snr_db"])
    nums = p["num_attacker_antennas"]
    # theory[cond, idx], sim and stderr for the aligned (cond 0) and misaligned (cond 1) attackers
    angles, precoders = _fig7_attackers(p, nums)
    theory = mse_delta(geom, p["theta"], angles, precoders) + noise.floor
    sim, stderr = monte_carlo_mse(geom, p["theta"], angles, precoders, noise, p["trials"], derive_rng(config.seed))
    return _table(config, p, {
        "num_attacker_antennas": nums,
        "zeta_aligned_theory": theory[0],
        "zeta_aligned_sim": sim[0],
        "zeta_aligned_stderr": stderr[0],
        "zeta_misaligned_theory": theory[1],
        "zeta_misaligned_sim": sim[1],
        "zeta_misaligned_stderr": stderr[1],
    })


def _check_fig7(table):
    p = table.metadata
    # delta, not zeta: a large noise floor would absorb it in the theory columns
    aligned, misaligned = mse_delta(
        ArrayGeometry(p["num_rx_antennas"]), p["theta"],
        *_fig7_attackers(p, _column(table, "num_attacker_antennas")),
    )
    results = []
    spread = float(np.max(aligned) - np.min(aligned))
    results.append(CheckResult("aligned_constant_in_L", spread <= 1e-12, f"spread {spread:.3e}"))
    results.append(CheckResult("misaligned_strictly_larger", bool(np.all(misaligned > aligned))))
    worst = 0.0
    for prefix in ("aligned", "misaligned"):
        theory, sim, stderr = (_column(table, f"zeta_{prefix}_{s}") for s in ("theory", "sim", "stderr"))
        # a point without a standard error counts as no deviation
        sigmas = np.divide(np.abs(sim - theory), stderr, out=np.zeros_like(stderr), where=stderr > 0)
        worst = max(worst, float(np.max(sigmas, initial=0.0)))
    results.append(CheckResult("sim_within_3_sigma", worst <= 3.0, f"worst deviation {worst:.2f} sigma"))
    return results


# --------------------------------------------------------------------------
# the figure registry


class FigureSpec(NamedTuple):
    """One figure: its default parameters, runner, checks, plot layout, sweep axes and count floors.

    `plot` is `emit_plot`'s (kind, x_column, y_columns, group_by).
    `sweep_axes` names the parameters whose entries are sweep points, each
    of which an override may not repeat. `least` holds (count, least value)
    pairs above 1: an array needs two elements, a standard error two trials.
    """

    defaults: dict
    run: Callable
    check: Callable
    plot: tuple
    sweep_axes: tuple = ()
    least: tuple = (("num_rx_antennas", 2),)


def _fig3d_spec(theta_hats):
    return FigureSpec(
        defaults=dict(
            theta=0.4, theta_hats=theta_hats, num_rx_antennas=16, snr_db=15.0, phi_points=126, betas=(0.5, 0.5)
        ),
        run=run_fig3d,
        check=_check_fig3d,
        plot=("surface", "phi0_rad", ["phi1_rad", "zeta"], None),
    )


FIGURES = {
    "fig2": FigureSpec(
        defaults=dict(
            theta=0.4, theta_hat=0.2, num_snapshots=2000, trials=200, grid_step=0.001,
            snr_db=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0), num_rx_antennas=(2, 8, 16),
        ),
        run=run_fig2,
        check=_check_fig2,
        plot=("line", "snr_db", ["mean_est_alice_rad", "mean_est_eve_rad"], "num_rx_antennas"),
        sweep_axes=("snr_db", "num_rx_antennas"),
    ),
    "fig3": FigureSpec(
        defaults=dict(
            theta=0.4, num_rx_antennas=16, snr_db=15.0, phi_points=126, trials=10000,
            beta_pairs=((0.5, 0.5), (0.3, 0.3)),
        ),
        run=run_fig3,
        check=_check_fig3,
        plot=("line", "phi0_rad", ["zeta_theory", "zeta_sim"], ("beta0", "beta1")),
        sweep_axes=("beta_pairs",),
        least=(("num_rx_antennas", 2), ("trials", 2)),
    ),
    "fig3d_same": _fig3d_spec(theta_hats=(0.4, 0.4)),
    "fig3d_diff": _fig3d_spec(theta_hats=(0.39, 0.41)),
    "fig5": FigureSpec(
        defaults=dict(
            theta=0.4, num_rx_antennas=16, snr_alice_db=15.0,
            snr_eve_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), num_attacker_antennas=(1, 2, 4, 12),
        ),
        run=run_fig5,
        check=_check_fig5,
        plot=("line", "snr_eve_db", ["zeta"], "num_attacker_antennas"),
        sweep_axes=("snr_eve_db", "num_attacker_antennas"),
    ),
    "fig6": FigureSpec(
        defaults=dict(thetas=(0.2, 0.4), num_rx_antennas=20, num_attacker_antennas=12, snr_db=30.0, grid_step=0.001),
        run=run_fig6,
        check=_check_fig6,
        # the y columns are named after `thetas`, so the plot takes every column after x
        plot=("line", "theta_hat_e_rad", None, None),
        sweep_axes=("thetas",),
    ),
    "fig7": FigureSpec(
        defaults=dict(
            theta=0.4, num_rx_antennas=10, snr_db=15.0, angle_gap=0.2, trials=10000,
            num_attacker_antennas=tuple(range(1, 33)),
        ),
        run=run_fig7,
        check=_check_fig7,
        plot=(
            "line",
            "num_attacker_antennas",
            ["zeta_aligned_theory", "zeta_aligned_sim", "zeta_misaligned_theory", "zeta_misaligned_sim"],
            None,
        ),
        sweep_axes=("num_attacker_antennas",),
        least=(("num_rx_antennas", 2), ("trials", 2)),
    ),
}

FIGURE_IDS = tuple(FIGURES)


def run_figure(config):
    return FIGURES[config.figure_id].run(config)


def evaluate_checks(figure_id, table):
    """Automated assertions tied to each figure's headline claims."""
    return FIGURES[figure_id].check(table)


def emit_plot(table, kind, path, x_column, y_columns=None, group_by=None):
    """Write a self-contained SVG chart of the table.

    For kind "line", every y column becomes one series, split further by
    the values of the optional group_by, a column name or a tuple of them;
    every group must cover the same x values, else ValueError. y_columns
    None means every column after x_column. For kind "surface", y_columns
    must be [y_axis_column, z_column] over a rectangular (x, y) grid.
    """
    if kind not in ("line", "surface"):
        raise ValueError(f"unknown plot kind {kind!r}")
    xs = _column(table, x_column)
    if y_columns is None:
        y_columns = table.columns[table.columns.index(x_column) + 1 :]
    if kind == "line":
        ys = {col: _column(table, col) for col in y_columns}
        names = (group_by,) if isinstance(group_by, str) else tuple(group_by or ())
        keys = list(zip(*(_column(table, name).tolist() for name in names))) if names else [()] * len(xs)
        series, x_axis = {}, xs
        for i, key in enumerate(sorted(set(keys))):
            order = np.flatnonzero([k == key for k in keys])
            order = order[np.argsort(xs[order], kind="stable")]
            if i and not np.array_equal(xs[order], x_axis):
                raise ValueError(f"the line groups by {', '.join(names)} do not share one {x_column} axis")
            x_axis = xs[order]
            tag = ", ".join(f"{name}={value}" for name, value in zip(names, key))
            for col, vals in ys.items():
                series[f"{col} [{tag}]" if tag else col] = vals[order]
        svg = svgfig.line_chart(x_axis, series, x_label=x_column, y_label=", ".join(y_columns))
    else:
        y_col, z_col = y_columns
        x_axis, y_axis, z = _grid(xs, _column(table, y_col), _column(table, z_col))
        svg = svgfig.surface_chart(x_axis, y_axis, z, x_label=x_column, y_label=y_col, z_label=z_col)
    Path(path).write_text(svg)
    return Path(path)


def reproduce(config):
    """Run one figure, write `<figure_id>__<seed>.csv/.svg`, run its checks.

    The plot is drawn first, so a table that cannot be plotted raises
    before either file is written. Returns (table, checks, csv_path, svg_path).
    """
    table = run_figure(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.figure_id}__{config.seed}.csv"
    svg_path = out / f"{config.figure_id}__{config.seed}.svg"
    kind, x_col, y_cols, group = FIGURES[config.figure_id].plot
    emit_plot(table, kind, svg_path, x_col, y_cols, group)
    write_csv(table, csv_path)
    checks = evaluate_checks(config.figure_id, table)
    return table, checks, csv_path, svg_path
