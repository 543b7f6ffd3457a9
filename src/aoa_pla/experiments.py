"""Deterministic scenario runs reproducing the headline simulation figures.

Each figure is one `FIGURES` entry: its default parameters, the runner that
sweeps its scenario into a ResultTable (columns + rows + complete
metadata), the automated checks on the numbers it produced, and its plot
layout. CSV output is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, svgfig
from .arrays import TWO_PI, ArrayGeometry, AttackerConfig, NoiseModel, _precoders, derive_rng
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
        known = FIGURES[self.figure_id].defaults
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
            if is_count and not all(isinstance(v, numbers.Integral) and v >= 1 for v in _entries(value)):
                raise ValueError(
                    f"override {key!r} for {self.figure_id} takes integers >= 1, got {value!r}"
                )

    def params(self):
        resolved = dict(FIGURES[self.figure_id].defaults)
        resolved.update(self.overrides)
        return resolved


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _metadata(config, params):
    meta = {"figure_id": config.figure_id, "seed": config.seed, "version": __version__}
    meta.update(params)
    return meta


def _fmt_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(table, path):
    """Comma-separated table with `#`-prefixed metadata comment lines."""
    lines = [f"# {key} = {table.metadata[key]}" for key in sorted(table.metadata)]
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _column(table, name):
    try:
        idx = table.columns.index(name)
    except ValueError:
        raise KeyError(f"unknown column {name!r}; table has {table.columns}") from None
    return np.array([row[idx] for row in table.rows])


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
    columns = [
        "snr_db",
        "num_rx_antennas",
        "mean_est_alice_rad",
        "mean_est_eve_rad",
        "frac_trials_est_within_0.1rad",
    ]
    attacker = AttackerConfig(
        (p["theta_hat"], p["theta_hat"]), (0.5, 0.5), (0.0, 0.0)
    )
    rows = []
    point = 0
    for m in p["num_rx_antennas"]:
        geom = ArrayGeometry(m)
        for snr_db in p["snr_db"]:
            # a degenerate trial is nan, so its point's means are nan
            est_a, est_e = trial_estimates(
                geom, p["theta"], attacker, NoiseModel.from_db(snr_db), p["num_snapshots"], p["grid_step"],
                p["trials"], (config.seed, point),
            )
            rows.append(
                (
                    float(snr_db),
                    int(m),
                    float(np.mean(est_a)),
                    float(np.mean(est_e)),
                    float(np.mean(np.abs(est_a - est_e) < 0.1)),
                )
            )
            point += 1
    return ResultTable(columns, rows, _metadata(config, p))


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
    columns = ["phi0_rad", "beta0", "beta1", "zeta_theory", "zeta_sim", "zeta_sim_stderr"]
    # theory[pair_idx, k] over the (beta pair, phi) grid
    precoders = _precoders(np.asarray(p["beta_pairs"])[:, None, :], phis[:, None])
    theory = mse_delta(geom, p["theta"], (p["theta"], p["theta"]), precoders) + noise.floor
    rows = []
    for pair_idx, (b0, b1) in enumerate(p["beta_pairs"]):
        for k, phi in enumerate(phis):
            attacker = AttackerConfig((p["theta"], p["theta"]), (b0, b1), (phi, phi))
            sim, stderr = monte_carlo_mse(
                geom, p["theta"], attacker, noise, p["trials"], derive_rng(config.seed, pair_idx, k)
            )
            rows.append((float(phi), float(b0), float(b1), float(theory[pair_idx, k]), sim, stderr))
    return ResultTable(columns, rows, _metadata(config, p))


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
    columns = ["phi0_rad", "phi1_rad", "zeta"]
    phi0, phi1 = np.meshgrid(phis, phis, indexing="ij")
    precoders = _precoders(p["betas"], np.stack([phi0, phi1], axis=-1))
    zeta = mse_delta(geom, p["theta"], p["theta_hats"], precoders) + noise.floor
    rows = [(float(a), float(b), float(z)) for a, b, z in zip(phi0.ravel(), phi1.ravel(), zeta.ravel())]
    return ResultTable(columns, rows, _metadata(config, p))


def _circular_dist(phi):
    return min(abs(phi), TWO_PI - abs(phi))


def _check_fig3d(table):
    p = table.metadata
    phi0 = _column(table, "phi0_rad")
    phi1 = _column(table, "phi1_rad")
    zeta = _column(table, "zeta")
    # phi0 and phi1 share one axis, so swapping the phases transposes the grid
    _, _, surface = _grid(phi0, phi1, zeta)
    swap_defect = float(np.max(np.abs(surface - surface.T)))
    results = []
    if p["figure_id"] == "fig3d_same":
        results.append(
            CheckResult("swap_symmetry", swap_defect <= 1e-12, f"max |zeta(a,b)-zeta(b,a)| = {swap_defect:.3e}")
        )
    else:
        results.append(
            CheckResult("swap_asymmetry", swap_defect > 1e-6, f"max |zeta(a,b)-zeta(b,a)| = {swap_defect:.3e}")
        )
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
    columns = ["snr_eve_db", "num_attacker_antennas", "zeta"]
    nums = p["num_attacker_antennas"]
    deltas = mse_delta(geom, p["theta"], p["theta"], _best_case_precoders(nums))
    rows = []
    for num, delta in zip(nums, deltas):
        for snr_eve_db in p["snr_eve_db"]:
            floor = NoiseModel.from_db(p["snr_alice_db"], snr_eve_db).floor
            rows.append((float(snr_eve_db), int(num), float(delta) + floor))
    return ResultTable(columns, rows, _metadata(config, p))


def _check_fig5(table):
    p = table.metadata
    snr = _column(table, "snr_eve_db")
    num = _column(table, "num_attacker_antennas")
    zeta = _column(table, "zeta")
    results = []
    # each curve (one antenna count) as a run of rows in SNR order, ties by zeta
    order = np.lexsort((zeta, snr, num))
    curve, z = num[order], zeta[order]
    same_curve = curve[1:] == curve[:-1]
    decreasing = bool(np.all(z[1:][same_curve] < z[:-1][same_curve]))
    results.append(CheckResult("zeta_decreasing_in_snr_eve", decreasing))
    order = np.argsort(snr, kind="stable")
    s, z = snr[order], zeta[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    spread = float(np.max(np.maximum.reduceat(z, starts) - np.minimum.reduceat(z, starts)))
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
    columns = ["theta_hat_e_rad"] + [f"zeta_theta_{theta}" for theta in p["thetas"]]
    precoders = _best_case_precoders((p["num_attacker_antennas"],))
    zeta = mse_delta(geom, p["thetas"], grid[:, None, None], precoders) + noise.floor
    rows = [(float(th_e),) + tuple(float(z) for z in zs) for th_e, zs in zip(grid, zeta)]
    return ResultTable(columns, rows, _metadata(config, p))


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


def run_fig7(config):
    """MSE vs attacker antenna count, aligned and misaligned with Alice."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    noise = NoiseModel.from_db(p["snr_db"])
    columns = [
        "num_attacker_antennas",
        "zeta_aligned_theory",
        "zeta_aligned_sim",
        "zeta_aligned_stderr",
        "zeta_misaligned_theory",
        "zeta_misaligned_sim",
        "zeta_misaligned_stderr",
    ]
    nums = p["num_attacker_antennas"]
    theta_hats = (p["theta"], p["theta"] + p["angle_gap"])
    # theory[cond, idx] for the aligned (cond 0) and misaligned (cond 1) attackers
    angles = np.asarray(theta_hats)[:, None, None]
    precoders = _best_case_precoders(nums)
    theory = mse_delta(geom, p["theta"], angles, precoders) + noise.floor
    rows = []
    for idx, num in enumerate(nums):
        row = [int(num)]
        for cond, theta_hat in enumerate(theta_hats):
            attacker = AttackerConfig.from_precoders((theta_hat,) * num, precoders[idx, :num])
            sim, stderr = monte_carlo_mse(
                geom, p["theta"], attacker, noise, p["trials"], derive_rng(config.seed, idx, cond)
            )
            row.extend([float(theory[cond, idx]), sim, stderr])
        rows.append(tuple(row))
    return ResultTable(columns, rows, _metadata(config, p))


def _check_fig7(table):
    aligned = _column(table, "zeta_aligned_theory")
    misaligned = _column(table, "zeta_misaligned_theory")
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
    """One figure: its default parameters, runner, checks and plot layout.

    `plot` is `emit_plot`'s (kind, x_column, y_columns, group_by).
    """

    defaults: dict
    run: Callable
    check: Callable
    plot: tuple


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
    ),
    "fig3": FigureSpec(
        defaults=dict(
            theta=0.4, num_rx_antennas=16, snr_db=15.0, phi_points=126, trials=10000,
            beta_pairs=((0.5, 0.5), (0.3, 0.3)),
        ),
        run=run_fig3,
        check=_check_fig3,
        plot=("line", "phi0_rad", ["zeta_theory", "zeta_sim"], "beta0"),
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
    ),
    "fig6": FigureSpec(
        defaults=dict(thetas=(0.2, 0.4), num_rx_antennas=20, num_attacker_antennas=12, snr_db=30.0, grid_step=0.001),
        run=run_fig6,
        check=_check_fig6,
        # the y columns are named after `thetas`, so the plot takes every column after x
        plot=("line", "theta_hat_e_rad", None, None),
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

    For kind "line", every y column becomes one series (split further by
    the optional group_by column); y_columns None means every column after
    x_column. For kind "surface", y_columns must be [y_axis_column,
    z_column] over a rectangular (x, y) grid.
    """
    if kind not in ("line", "surface"):
        raise ValueError(f"unknown plot kind {kind!r}")
    xs = _column(table, x_column)
    if y_columns is None:
        y_columns = table.columns[table.columns.index(x_column) + 1 :]
    if kind == "line":
        ys = {col: _column(table, col) for col in y_columns}
        if group_by is None:
            groups = {None: np.arange(len(xs))}
        else:
            gvals = _column(table, group_by)
            groups = {g: np.flatnonzero(gvals == g) for g in sorted(set(gvals.tolist()), key=str)}
        series, x_axis = {}, []
        for gval, idxs in groups.items():
            order = idxs[np.argsort(xs[idxs], kind="stable")]
            x_axis = xs[order].tolist()
            for col, vals in ys.items():
                label = col if gval is None else f"{col} [{group_by}={gval}]"
                series[label] = vals[order].tolist()
        svg = svgfig.line_chart(x_axis, series, x_label=x_column, y_label=", ".join(y_columns))
    else:
        y_col, z_col = y_columns
        x_axis, y_axis, z = _grid(xs, _column(table, y_col), _column(table, z_col))
        svg = svgfig.surface_chart(
            x_axis.tolist(), y_axis.tolist(), z.tolist(), x_label=x_column, y_label=y_col, z_label=z_col
        )
    Path(path).write_text(svg)
    return Path(path)


def reproduce(config):
    """Run one figure, write `<figure_id>__<seed>.csv/.svg`, run its checks.

    Returns (table, checks, csv_path, svg_path).
    """
    table = run_figure(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.figure_id}__{config.seed}.csv"
    svg_path = out / f"{config.figure_id}__{config.seed}.svg"
    write_csv(table, csv_path)
    kind, x_col, y_cols, group = FIGURES[config.figure_id].plot
    emit_plot(table, kind, svg_path, x_col, y_cols, group)
    checks = evaluate_checks(config.figure_id, table)
    return table, checks, csv_path, svg_path
