import math
from pathlib import Path

import numpy as np
import pytest

import aoa_pla
from aoa_pla import experiments
from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel
from aoa_pla.attack import mse_closed_form
from aoa_pla.experiments import (
    FIGURE_IDS,
    CheckResult,
    ExperimentConfig,
    ResultTable,
    emit_plot,
    evaluate_checks,
    reproduce,
    run_figure,
    write_csv,
)

CHEAP_OVERRIDES = {
    "fig2": dict(trials=3, num_snapshots=100, snr_db=(15.0,), num_rx_antennas=(16,)),
    "fig3": dict(phi_points=7, trials=200),
    "fig3d_same": dict(phi_points=9),
    "fig3d_diff": dict(phi_points=9),
    "fig5": {},
    "fig6": dict(grid_step=0.05),
    "fig7": dict(num_attacker_antennas=(1, 2, 3), trials=500),
}


def test_config_rejects_unknown_figure():
    with pytest.raises(ValueError, match="unknown figure_id"):
        ExperimentConfig("fig99")


def test_config_rejects_unknown_override():
    with pytest.raises(ValueError, match="unknown override"):
        ExperimentConfig("fig5", overrides={"bogus": 1})


@pytest.mark.parametrize(
    "figure_id, key, value",
    [
        ("fig2", "trials", 0),
        ("fig3", "trials", 2.5),
        ("fig7", "trials", -1),
        ("fig3", "phi_points", 0),
        ("fig3d_same", "phi_points", 1.0),
        ("fig2", "num_snapshots", 0),
        ("fig2", "num_rx_antennas", (16, 0)),
        ("fig6", "num_rx_antennas", 20.5),
        ("fig5", "num_attacker_antennas", (0,)),
        ("fig6", "num_attacker_antennas", 0),
        ("fig7", "num_attacker_antennas", (1, 2.5)),
    ],
)
def test_config_counts_take_integers_at_least_one(figure_id, key, value):
    with pytest.raises(ValueError, match=f"override {key!r} for {figure_id} takes integers >= 1"):
        ExperimentConfig(figure_id, overrides={key: value})


@pytest.mark.parametrize(
    "figure_id, key",
    [
        ("fig7", "num_attacker_antennas"),
        ("fig5", "snr_eve_db"),
        ("fig2", "snr_db"),
        ("fig3", "beta_pairs"),
        ("fig6", "thetas"),
    ],
)
def test_config_rejects_empty_tuple(figure_id, key):
    with pytest.raises(ValueError, match=f"override {key!r} for {figure_id} must be .*, got an empty tuple"):
        ExperimentConfig(figure_id, overrides={key: ()})


def test_config_count_rule_follows_the_defaults():
    # int defaults are counts; float defaults still take integer values
    ExperimentConfig("fig5", overrides={"num_attacker_antennas": (1, np.int64(3)), "snr_alice_db": 15})
    ExperimentConfig("fig3", overrides={"beta_pairs": ((1, 0),), "trials": 1, "phi_points": 1})
    ExperimentConfig("fig6", overrides={"thetas": (0, 1), "snr_db": -5})


def test_config_params_merge():
    cfg = ExperimentConfig("fig5", overrides={"theta": 0.1})
    params = cfg.params()
    assert params["theta"] == 0.1
    assert params["num_rx_antennas"] == 16


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_runner_produces_table_and_checks(figure_id, tmp_path):
    cfg = ExperimentConfig(figure_id, seed=0, overrides=CHEAP_OVERRIDES[figure_id], output_dir=str(tmp_path))
    table = run_figure(cfg)
    assert isinstance(table, ResultTable)
    assert table.rows
    assert all(len(row) == len(table.columns) for row in table.rows)
    assert table.metadata["figure_id"] == figure_id
    assert table.metadata["seed"] == 0
    checks = evaluate_checks(figure_id, table)
    assert checks
    assert all(isinstance(c, CheckResult) for c in checks)


def test_csv_format(tmp_path):
    cfg = ExperimentConfig("fig5", seed=3)
    table = run_figure(cfg)
    path = tmp_path / "out.csv"
    write_csv(table, path)
    lines = path.read_text().splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln == "# figure_id = fig5" for ln in meta)
    assert any(ln == "# seed = 3" for ln in meta)
    header_idx = len(meta)
    assert lines[header_idx] == ",".join(table.columns)
    assert len(lines) == header_idx + 1 + len(table.rows)
    # float cells parse back exactly (repr round-trip)
    first = lines[header_idx + 1].split(",")
    assert float(first[2]) == table.rows[0][2]


def test_version_has_one_definition():
    tomllib = pytest.importorskip("tomllib")
    assert not hasattr(experiments, "VERSION")
    assert run_figure(ExperimentConfig("fig5")).metadata["version"] == aoa_pla.__version__ == "0.1.0"
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert pyproject["project"]["dynamic"] == ["version"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "aoa_pla.__version__"}


def test_reproduce_outputs_and_naming(tmp_path):
    cfg = ExperimentConfig("fig5", seed=11, output_dir=str(tmp_path))
    table, checks, csv_path, svg_path = reproduce(cfg)
    assert csv_path.name == "fig5__11.csv"
    assert svg_path.name == "fig5__11.svg"
    assert csv_path.exists() and svg_path.exists()
    assert svg_path.read_text().lstrip().startswith("<svg")
    assert all(c.passed for c in checks)


def test_reproduce_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for fid in ("fig5", "fig3"):
        ov = CHEAP_OVERRIDES[fid]
        _, _, p1, s1 = reproduce(ExperimentConfig(fid, seed=4, overrides=ov, output_dir=str(out1)))
        _, _, p2, s2 = reproduce(ExperimentConfig(fid, seed=4, overrides=ov, output_dir=str(out2)))
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()


def test_different_seed_changes_simulated_output(tmp_path):
    ov = CHEAP_OVERRIDES["fig3"]
    _, _, p1, _ = reproduce(ExperimentConfig("fig3", seed=1, overrides=ov, output_dir=str(tmp_path)))
    _, _, p2, _ = reproduce(ExperimentConfig("fig3", seed=2, overrides=ov, output_dir=str(tmp_path)))
    assert p1.read_bytes() != p2.read_bytes()


def test_emit_plot_unknown_column(tmp_path):
    table = run_figure(ExperimentConfig("fig5"))
    with pytest.raises(KeyError, match="nope"):
        emit_plot(table, "line", tmp_path / "x.svg", x_column="nope")
    with pytest.raises(KeyError, match="nope"):
        emit_plot(table, "line", tmp_path / "x.svg", "snr_eve_db", ["zeta", "nope"])
    with pytest.raises(KeyError, match="nope"):
        emit_plot(table, "line", tmp_path / "x.svg", "snr_eve_db", ["zeta"], group_by="nope")
    with pytest.raises(ValueError, match="unknown plot kind"):
        emit_plot(table, "pie", tmp_path / "x.svg", "snr_eve_db")
    surface = run_figure(ExperimentConfig("fig3d_same", overrides=CHEAP_OVERRIDES["fig3d_same"]))
    with pytest.raises(KeyError, match="nope"):
        emit_plot(surface, "surface", tmp_path / "x.svg", "phi0_rad", ["nope", "zeta"])
    with pytest.raises(KeyError, match="nope"):
        emit_plot(surface, "surface", tmp_path / "x.svg", "phi0_rad", ["phi1_rad", "nope"])
    assert not (tmp_path / "x.svg").exists()


def test_surface_plot(tmp_path):
    cfg = ExperimentConfig("fig3d_same", overrides=CHEAP_OVERRIDES["fig3d_same"])
    table = run_figure(cfg)
    path = emit_plot(table, "surface", tmp_path / "s.svg", "phi0_rad", ["phi1_rad", "zeta"])
    assert path.read_text().lstrip().startswith("<svg")
    incomplete = ResultTable(table.columns, table.rows[1:], table.metadata)
    with pytest.raises(ValueError, match="rectangular grid"):
        emit_plot(incomplete, "surface", tmp_path / "t.svg", "phi0_rad", ["phi1_rad", "zeta"])
    with pytest.raises(ValueError, match="rectangular grid"):
        evaluate_checks("fig3d_same", incomplete)


@pytest.mark.parametrize("figure_id", ["fig3d_same", "fig3d_diff"])
def test_fig3d_plot_and_checks_do_not_depend_on_row_order(figure_id, tmp_path):
    table = run_figure(ExperimentConfig(figure_id, overrides=CHEAP_OVERRIDES[figure_id]))
    # the four corner phases tie for the minimum and the check reports the
    # first in row order, so the (0, 0) row stays first
    rest = np.random.default_rng(5).permutation(np.arange(1, len(table.rows)))
    shuffled = ResultTable(table.columns, [table.rows[0]] + [table.rows[i] for i in rest], table.metadata)
    assert shuffled.rows != table.rows
    kind, x_col, y_cols, group = experiments.FIGURES[figure_id].plot
    emit_plot(table, kind, tmp_path / "a.svg", x_col, y_cols, group)
    emit_plot(shuffled, kind, tmp_path / "b.svg", x_col, y_cols, group)
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    assert evaluate_checks(figure_id, shuffled) == evaluate_checks(figure_id, table)


def test_check_results_are_python_bools():
    for figure_id in FIGURE_IDS:
        table = run_figure(ExperimentConfig(figure_id, overrides=CHEAP_OVERRIDES[figure_id]))
        assert all(type(c.passed) is bool for c in evaluate_checks(figure_id, table))


def test_fig5_equal_snr_check_only_when_swept():
    swept = evaluate_checks("fig5", run_figure(ExperimentConfig("fig5")))
    assert "equal_snr_point_noise_floor" in [c.name for c in swept]
    assert all(c.passed for c in swept)
    table = run_figure(ExperimentConfig("fig5", overrides={"snr_eve_db": (0.0, 5.0, 10.0)}))
    checks = evaluate_checks("fig5", table)
    assert [c.name for c in checks] == ["zeta_decreasing_in_snr_eve", "curves_coincide_across_L"]
    assert all(c.passed for c in checks)


def test_figure_ids_follow_the_registry():
    assert FIGURE_IDS == tuple(experiments.FIGURES)
    assert FIGURE_IDS == ("fig2", "fig3", "fig3d_same", "fig3d_diff", "fig5", "fig6", "fig7")
    for name in ("_DEFAULTS", "_RUNNERS", "_CHECKERS", "_PLOT_SPECS"):
        assert not hasattr(experiments, name)


def test_deterministic_figure_checks_pass(tmp_path):
    # closed-form-only figures must satisfy their embedded checks even
    # at reduced resolution
    for fid in ("fig5", "fig3d_same", "fig3d_diff"):
        cfg = ExperimentConfig(fid, overrides=CHEAP_OVERRIDES[fid], output_dir=str(tmp_path))
        table = run_figure(cfg)
        for check in evaluate_checks(fid, table):
            assert check.passed, f"{fid}:{check.name}: {check.detail}"


def _per_point_zeta(figure_id, p):
    """The figure's closed-form zeta columns from one scalar mse_closed_form call per sweep point."""
    geom = ArrayGeometry(p["num_rx_antennas"])

    def best_case(angle, num):
        return AttackerConfig((angle,) * num, (1.0 / num,) * num, (0.0,) * num)

    if figure_id == "fig3":
        noise = NoiseModel.from_db(p["snr_db"])
        phis = np.linspace(0.0, 2.0 * math.pi, p["phi_points"])
        attackers = [
            AttackerConfig((p["theta"],) * 2, pair, (phi, phi)) for pair in p["beta_pairs"] for phi in phis
        ]
        return [mse_closed_form(geom, p["theta"], att, noise).zeta for att in attackers]
    if figure_id == "fig7":
        noise = NoiseModel.from_db(p["snr_db"])
        theta_hats = (p["theta"], p["theta"] + p["angle_gap"])
        return [
            [mse_closed_form(geom, p["theta"], best_case(th, num), noise).zeta for th in theta_hats]
            for num in p["num_attacker_antennas"]
        ]
    if figure_id in ("fig3d_same", "fig3d_diff"):
        noise = NoiseModel.from_db(p["snr_db"])
        phis = np.linspace(0.0, 2.0 * math.pi, p["phi_points"])
        attackers = [AttackerConfig(p["theta_hats"], p["betas"], (a, b)) for a in phis for b in phis]
        return [mse_closed_form(geom, p["theta"], att, noise).zeta for att in attackers]
    if figure_id == "fig5":
        return [
            mse_closed_form(
                geom, p["theta"], best_case(p["theta"], num), NoiseModel.from_db(p["snr_alice_db"], snr)
            ).zeta
            for num in p["num_attacker_antennas"]
            for snr in p["snr_eve_db"]
        ]
    noise = NoiseModel.from_db(p["snr_db"])
    kmax = int(math.floor(math.pi / p["grid_step"]))
    num = p["num_attacker_antennas"]
    return [
        [mse_closed_form(geom, theta, best_case(th_e, num), noise).zeta for theta in p["thetas"]]
        for th_e in p["grid_step"] * np.arange(-kmax, kmax + 1)
    ]


@pytest.mark.parametrize(
    "figure_id, overrides",
    [
        ("fig3", dict(phi_points=8, trials=100)),
        ("fig3d_same", dict(phi_points=8)),
        ("fig3d_diff", dict(phi_points=8)),
        ("fig5", {}),
        ("fig6", dict(grid_step=0.05)),
        ("fig7", dict(num_attacker_antennas=(1, 2, 5), trials=100)),
    ],
)
def test_batched_runner_matches_per_point_closed_form(figure_id, overrides):
    cfg = ExperimentConfig(figure_id, overrides=overrides)
    table = run_figure(cfg)
    zeta_columns = [c for c in table.columns if c.startswith("zeta") and not c.endswith(("_sim", "_stderr"))]
    got = np.array([[row[table.columns.index(c)] for c in zeta_columns] for row in table.rows])
    want = np.array(_per_point_zeta(figure_id, cfg.params()), dtype=float).reshape(got.shape)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# Columns that do not depend on the random stream; RNG-driven columns are
# left out of the value-level fixtures.
DETERMINISTIC_COLUMNS = {
    "fig2": ("snr_db", "num_rx_antennas"),
    "fig3": ("phi0_rad", "beta0", "beta1", "zeta_theory"),
    "fig3d_same": ("phi0_rad", "phi1_rad", "zeta"),
    "fig3d_diff": ("phi0_rad", "phi1_rad", "zeta"),
    "fig5": ("snr_eve_db", "num_attacker_antennas", "zeta"),
    "fig6": ("theta_hat_e_rad", "zeta_theta_0.2", "zeta_theta_0.4"),
    "fig7": ("num_attacker_antennas", "zeta_aligned_theory", "zeta_misaligned_theory"),
}

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def _deterministic_table(figure_id):
    table = run_figure(ExperimentConfig(figure_id, overrides=CHEAP_OVERRIDES[figure_id]))
    names = DETERMINISTIC_COLUMNS[figure_id]
    idx = [table.columns.index(name) for name in names]
    rows = [tuple(row[i] for i in idx) for row in table.rows]
    return ResultTable(list(names), rows, table.metadata)


def _read_fixture(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_deterministic_columns_match_fixture(figure_id):
    # rtol 1e-10: the Gram-matrix form the fixtures were recorded with
    # carries up to ~1e-12 relative cancellation error near the noise floor
    columns, expected = _read_fixture(FIXTURE_DIR / f"{figure_id}.csv")
    table = _deterministic_table(figure_id)
    assert table.columns == columns
    np.testing.assert_allclose(np.array(table.rows, dtype=float), expected, rtol=1e-10, atol=0.0)


if __name__ == "__main__":
    # Re-record the fixtures from the current program:
    #   PYTHONPATH=src python tests/test_experiments.py
    FIXTURE_DIR.mkdir(exist_ok=True)
    for fid in FIGURE_IDS:
        write_csv(_deterministic_table(fid), FIXTURE_DIR / f"{fid}.csv")
