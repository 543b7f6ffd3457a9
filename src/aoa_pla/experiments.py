"""Deterministic scenario runs reproducing the headline simulation figures.

Each runner sweeps its scenario, returns a ResultTable (columns + rows +
complete metadata), and has an associated set of automated checks on the
numbers it produced. CSV output is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, svgfig
from .arrays import (
    TWO_PI,
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    derive_rng,
    synthesize_attack,
    synthesize_legitimate,
)
from .attack import monte_carlo_mse, mse_delta
from .music import estimate_aoa

FIGURE_IDS = ("fig2", "fig3", "fig3d_same", "fig3d_diff", "fig5", "fig6", "fig7")

_DEFAULTS = {
    "fig2": dict(
        theta=0.4,
        theta_hat=0.2,
        num_snapshots=2000,
        trials=200,
        snr_db=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0),
        num_rx_antennas=(2, 8, 16),
        grid_step=0.001,
    ),
    "fig3": dict(
        theta=0.4,
        num_rx_antennas=16,
        snr_db=15.0,
        phi_points=126,
        beta_pairs=((0.5, 0.5), (0.3, 0.3)),
        trials=10000,
    ),
    "fig3d_same": dict(
        theta=0.4,
        theta_hats=(0.4, 0.4),
        num_rx_antennas=16,
        snr_db=15.0,
        phi_points=126,
        betas=(0.5, 0.5),
    ),
    "fig3d_diff": dict(
        theta=0.4,
        theta_hats=(0.39, 0.41),
        num_rx_antennas=16,
        snr_db=15.0,
        phi_points=126,
        betas=(0.5, 0.5),
    ),
    "fig5": dict(
        theta=0.4,
        num_rx_antennas=16,
        snr_alice_db=15.0,
        snr_eve_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        num_attacker_antennas=(1, 2, 4, 12),
    ),
    "fig6": dict(
        thetas=(0.2, 0.4),
        num_rx_antennas=20,
        num_attacker_antennas=12,
        snr_db=30.0,
        grid_step=0.001,
    ),
    "fig7": dict(
        theta=0.4,
        num_rx_antennas=10,
        snr_db=15.0,
        num_attacker_antennas=tuple(range(1, 33)),
        angle_gap=0.2,
        trials=10000,
    ),
}


def _shape(value):
    """Nesting of a figure parameter: 'a scalar', 'a flat tuple' or 'a tuple of pairs'.

    Any other nesting is 'a nested tuple', which no default has, so an
    override of that shape is always rejected.
    """
    if not isinstance(value, (tuple, list)):
        return "a scalar"
    shapes = {_shape(v) for v in value}
    if shapes <= {"a scalar"}:
        return "a flat tuple"
    if shapes == {"a flat tuple"} and all(len(v) == 2 for v in value):
        return "a tuple of pairs"
    return "a nested tuple"


@dataclass(frozen=True)
class ExperimentConfig:
    figure_id: str
    seed: int = 0
    overrides: dict = field(default_factory=dict)
    output_dir: str = "."

    def __post_init__(self):
        if self.figure_id not in FIGURE_IDS:
            raise ValueError(f"unknown figure_id {self.figure_id!r}; expected one of {FIGURE_IDS}")
        known = _DEFAULTS[self.figure_id]
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

    def params(self):
        resolved = dict(_DEFAULTS[self.figure_id])
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
    return [row[idx] for row in table.rows]


def _best_case_attacker(theta_hat, num_antennas):
    """All antennas at theta_hat, zero phases, amplitudes summing to 1."""
    return AttackerConfig(
        (theta_hat,) * num_antennas,
        (1.0 / num_antennas,) * num_antennas,
        (0.0,) * num_antennas,
    )


def _precoders(betas, phis):
    """beta * e^{j*phi}, broadcast, with phi wrapped to [0, 2*pi) as AttackerConfig stores it."""
    return np.asarray(betas, dtype=float) * np.exp(1j * (np.asarray(phis) % TWO_PI))


def _best_case_precoders(nums):
    """Precoders of best-case attackers of every size in `nums`, one row each.

    Row i holds nums[i] precoders 1/nums[i], padded to max(nums) with
    zero-precoder antennas, which add nothing to the wavefront.
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
            noise = NoiseModel.from_db(snr_db)
            est_a = np.empty(p["trials"])
            est_e = np.empty(p["trials"])
            for t in range(p["trials"]):
                block = synthesize_legitimate(
                    geom, p["theta"], noise, p["num_snapshots"], derive_rng(config.seed, point, 0, t)
                )
                est_a[t] = estimate_aoa(block, geom, 1, p["grid_step"])[0]
                block = synthesize_attack(
                    geom, attacker, noise, p["num_snapshots"], derive_rng(config.seed, point, 1, t)
                )
                est_e[t] = estimate_aoa(block, geom, 1, p["grid_step"])[0]
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
    hi = [i for i in range(len(snr)) if snr[i] == 15.0 and m[i] == 16]
    if hi:
        i = hi[0]
        ok = abs(ma[i] - p["theta"]) <= 0.01 and abs(me[i] - p["theta_hat"]) <= 0.01
        results.append(
            CheckResult(
                "high_snr_estimates_accurate",
                ok,
                f"alice={ma[i]:.5f} eve={me[i]:.5f} at 15 dB, M=16",
            )
        )
    lo = [i for i in range(len(snr)) if snr[i] == -10.0 and m[i] == 2]
    if lo:
        i = lo[0]
        results.append(
            CheckResult(
                "low_snr_estimates_similar",
                frac[i] > 0.5,
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
    phi = np.array(_column(table, "phi0_rad"))
    b0 = np.array(_column(table, "beta0"))
    b1 = np.array(_column(table, "beta1"))
    theory = np.array(_column(table, "zeta_theory"))
    sim = np.array(_column(table, "zeta_sim"))
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
    lookup = {(a, b): z for a, b, z in zip(phi0, phi1, zeta)}
    swap_defect = max(abs(z - lookup[(b, a)]) for (a, b), z in lookup.items())
    results = []
    if p["figure_id"] == "fig3d_same":
        results.append(
            CheckResult("swap_symmetry", swap_defect <= 1e-12, f"max |zeta(a,b)-zeta(b,a)| = {swap_defect:.3e}")
        )
    else:
        results.append(
            CheckResult("swap_asymmetry", swap_defect > 1e-6, f"max |zeta(a,b)-zeta(b,a)| = {swap_defect:.3e}")
        )
    imin = int(np.argmin(zeta))
    d0, d1 = _circular_dist(phi0[imin]), _circular_dist(phi1[imin])
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
    by_l = {}
    for s, l, z in zip(snr, num, zeta):
        by_l.setdefault(l, []).append((s, z))
    decreasing = all(
        all(z2 < z1 for (_, z1), (_, z2) in zip(curve, curve[1:]))
        for curve in (sorted(vals) for vals in by_l.values())
    )
    results.append(CheckResult("zeta_decreasing_in_snr_eve", decreasing))
    spread = max(
        max(zs) - min(zs)
        for zs in (
            [z for s2, l2, z in zip(snr, num, zeta) if s2 == s] for s in sorted(set(snr))
        )
    )
    results.append(CheckResult("curves_coincide_across_L", spread <= 1e-12, f"max spread {spread:.3e}"))
    ref = [z for s, z in zip(snr, zeta) if s == p["snr_alice_db"]]
    expected = 2.0 * 10.0 ** (-p["snr_alice_db"] / 10.0)
    ok = bool(ref) and all(abs(z - expected) <= 1e-9 for z in ref)
    results.append(CheckResult("equal_snr_point_noise_floor", ok, f"expected {expected!r}"))
    return results


def run_fig6(config):
    """Closed-form MSE vs the shared attacker angle over [-pi, pi]."""
    p = config.params()
    geom = ArrayGeometry(p["num_rx_antennas"])
    noise = NoiseModel.from_db(p["snr_db"])
    step = p["grid_step"]
    kmax = int(math.floor(math.pi / step))
    grid = step * np.arange(-kmax, kmax + 1)
    columns = ["theta_hat_e_rad"] + [f"zeta_theta_{theta}" for theta in p["thetas"]]
    zeta = _best_case_delta(geom, p["thetas"], grid[:, None], p["num_attacker_antennas"]) + noise.floor
    rows = [(float(th_e),) + tuple(float(z) for z in zs) for th_e, zs in zip(grid, zeta)]
    return ResultTable(columns, rows, _metadata(config, p))


def _best_case_delta(geom, theta, theta_hat, num_antennas):
    """mse_delta of `_best_case_attacker(theta_hat, num_antennas)`, batched over theta_hat."""
    angles = np.asarray(theta_hat, dtype=float)[..., None]
    return mse_delta(geom, theta, angles, np.full(num_antennas, 1.0 / num_antennas))


def _local_minima(values):
    v = np.asarray(values)
    mask = np.zeros(v.shape, dtype=bool)
    mask[0] = v[0] < v[1]
    mask[-1] = v[-1] < v[-2]
    mask[1:-1] = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    return np.flatnonzero(mask)


def _check_fig6(table):
    p = table.metadata
    grid = np.array(_column(table, "theta_hat_e_rad"))
    theta = p["thetas"][0]
    zeta = np.array(_column(table, f"zeta_theta_{theta}"))
    floor = 2.0 * 10.0 ** (-p["snr_db"] / 10.0)
    results = []
    minima = _local_minima(zeta)
    lowest_two = sorted(minima[np.argsort(zeta[minima])[:2]])
    expect = sorted(
        (int(np.argmin(np.abs(grid - theta))), int(np.argmin(np.abs(grid - (math.pi - theta)))))
    )
    results.append(
        CheckResult(
            "alias_minima_locations",
            list(lowest_two) == expect,
            f"minima at grid angles {[float(grid[i]) for i in lowest_two]}",
        )
    )
    err = abs(float(np.min(zeta)) - floor)
    results.append(CheckResult("minimum_is_noise_floor", err <= 1e-12, f"|min - {floor!r}| = {err:.3e}"))
    geom = ArrayGeometry(p["num_rx_antennas"])
    probes = grid[:: max(len(grid) // 64, 1)]
    num = p["num_attacker_antennas"]
    # the noise floor cancels in zeta(t) - zeta(pi - t)
    defects = _best_case_delta(geom, theta, probes, num) - _best_case_delta(geom, theta, math.pi - probes, num)
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
    theory = mse_delta(geom, p["theta"], angles, _best_case_precoders(nums)) + noise.floor
    rows = []
    for idx, num in enumerate(nums):
        row = [int(num)]
        for cond, theta_hat in enumerate(theta_hats):
            attacker = _best_case_attacker(theta_hat, num)
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
    spread = max(aligned) - min(aligned)
    results.append(CheckResult("aligned_constant_in_L", spread <= 1e-12, f"spread {spread:.3e}"))
    results.append(
        CheckResult(
            "misaligned_strictly_larger",
            all(m > a for a, m in zip(aligned, misaligned)),
        )
    )
    worst = 0.0
    for prefix in ("aligned", "misaligned"):
        theory = _column(table, f"zeta_{prefix}_theory")
        sim = _column(table, f"zeta_{prefix}_sim")
        stderr = _column(table, f"zeta_{prefix}_stderr")
        for th, sm, se in zip(theory, sim, stderr):
            worst = max(worst, abs(sm - th) / se if se > 0 else 0.0)
    results.append(CheckResult("sim_within_3_sigma", worst <= 3.0, f"worst deviation {worst:.2f} sigma"))
    return results


_RUNNERS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig3d_same": run_fig3d,
    "fig3d_diff": run_fig3d,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
}

_CHECKERS = {
    "fig2": _check_fig2,
    "fig3": _check_fig3,
    "fig3d_same": _check_fig3d,
    "fig3d_diff": _check_fig3d,
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "fig7": _check_fig7,
}

# default plot layout per figure: (kind, x, y columns, optional group column)
_PLOT_SPECS = {
    "fig2": ("line", "snr_db", ["mean_est_alice_rad", "mean_est_eve_rad"], "num_rx_antennas"),
    "fig3": ("line", "phi0_rad", ["zeta_theory", "zeta_sim"], "beta0"),
    "fig3d_same": ("surface", "phi0_rad", ["phi1_rad", "zeta"], None),
    "fig3d_diff": ("surface", "phi0_rad", ["phi1_rad", "zeta"], None),
    "fig5": ("line", "snr_eve_db", ["zeta"], "num_attacker_antennas"),
    "fig6": ("line", "theta_hat_e_rad", None, None),
    "fig7": (
        "line",
        "num_attacker_antennas",
        ["zeta_aligned_theory", "zeta_aligned_sim", "zeta_misaligned_theory", "zeta_misaligned_sim"],
        None,
    ),
}


def run_figure(config):
    return _RUNNERS[config.figure_id](config)


def evaluate_checks(figure_id, table):
    """Automated assertions tied to each figure's headline claims."""
    return _CHECKERS[figure_id](table)


def emit_plot(table, kind, path, x_column=None, y_columns=None, group_by=None):
    """Write a self-contained SVG chart of the table.

    For kind "line", every y column becomes one series (split further by
    the optional group_by column). For kind "surface", y_columns must be
    [y_axis_column, z_column] over a rectangular (x, y) grid.
    """
    if kind not in ("line", "surface"):
        raise ValueError(f"unknown plot kind {kind!r}")
    x_column = x_column or table.columns[0]
    if y_columns is None:
        y_columns = [
            c
            for c in table.columns[1:]
            if c != x_column and isinstance(table.rows[0][table.columns.index(c)], (int, float))
        ]
    xs = _column(table, x_column)
    if kind == "line":
        series = {}
        if group_by is None:
            groups = {None: list(range(len(xs)))}
        else:
            gvals = _column(table, group_by)
            groups = {}
            for i, g in enumerate(gvals):
                groups.setdefault(g, []).append(i)
        x_axis = None
        for gval, idxs in sorted(groups.items(), key=lambda kv: str(kv[0])):
            order = sorted(idxs, key=lambda i: xs[i])
            x_axis = [xs[i] for i in order]
            for col in y_columns:
                vals = _column(table, col)
                label = col if gval is None else f"{col} [{group_by}={gval}]"
                series[label] = [vals[i] for i in order]
        svg = svgfig.line_chart(x_axis, series, x_label=x_column, y_label=", ".join(y_columns))
    else:
        y_col, z_col = y_columns
        ys = _column(table, y_col)
        zs = _column(table, z_col)
        x_axis = sorted(set(xs))
        y_axis = sorted(set(ys))
        lookup = {(a, b): z for a, b, z in zip(xs, ys, zs)}
        zgrid = [[lookup[(a, b)] for a in x_axis] for b in y_axis]
        svg = svgfig.surface_chart(x_axis, y_axis, zgrid, x_label=x_column, y_label=y_col, z_label=z_col)
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
    kind, x_col, y_cols, group = _PLOT_SPECS[config.figure_id]
    emit_plot(table, kind, svg_path, x_column=x_col, y_columns=y_cols, group_by=group)
    checks = evaluate_checks(config.figure_id, table)
    return table, checks, csv_path, svg_path
