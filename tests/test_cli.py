import math

import numpy as np
import pytest

from aoa_pla.arrays import ArrayGeometry, NoiseModel, synthesize_legitimate
from aoa_pla.auth import enroll, save_acl
from aoa_pla.cli import (
    ConfigError,
    load_config,
    main,
    read_signal_block,
    write_signal_block,
    _parse_angle,
    _parse_override_value,
)


def test_parse_angle_deg_suffix():
    assert _parse_angle("0.4") == 0.4
    assert _parse_angle("90 deg") == pytest.approx(math.pi / 2)
    assert _parse_angle("-45deg") == pytest.approx(-math.pi / 4)


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "[experiment]\n"
        "seed = 3  # trailing comment\n"
        "output_dir =  results/run 1 \n"
    )
    assert load_config(cfg) == {"experiment.seed": 3, "experiment.output_dir": "results/run 1"}


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[array]\nnum_antennas = 16\n")
    with pytest.raises(ConfigError, match="array.num_antennas"):
        load_config(cfg)


def test_load_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nseed = lots\n")
    with pytest.raises(ConfigError, match="experiment.seed"):
        load_config(cfg)


def test_load_config_rejects_bare_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(cfg)


def test_signal_block_roundtrip(tmp_path):
    geom = ArrayGeometry(6)
    block = synthesize_legitimate(geom, 0.25, NoiseModel.from_db(10.0), 15, 3)
    path = tmp_path / "block.txt"
    write_signal_block(path, block)
    back = read_signal_block(path)
    assert back.samples.shape == block.samples.shape
    assert np.array_equal(back.samples, block.samples)


def test_signal_block_malformed(tmp_path):
    path = tmp_path / "block.txt"
    path.write_text("3 2\n1+0j,2+0j,3+0j\n")
    with pytest.raises(ValueError, match="2 snapshots"):
        read_signal_block(path)
    path.write_text("3 1\n1+0j,2+0j\n")
    with pytest.raises(ValueError, match="expected 3 entries"):
        read_signal_block(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_signal_block(path)


def test_signal_block_rejects_non_finite_sample_with_line(tmp_path):
    path = tmp_path / "block.txt"
    # the blank line still counts, so the bad snapshot is on line 4
    path.write_text("2 3\n1+0j,1+0j\n\nnan+0j,1+0j\n1+0j,1+0j\n")
    with pytest.raises(ValueError, match=rf"{path}:4: non-finite sample"):
        read_signal_block(path)
    path.write_text("2 2\n1+0j,1+0j\n1+0j,1+infj\n")
    with pytest.raises(ValueError, match=rf"{path}:3: non-finite sample"):
        read_signal_block(path)
    path.write_text("2 1\n1+0j,one\n")
    with pytest.raises(ValueError, match=rf"{path}:2: malformed complex literal"):
        read_signal_block(path)


def test_cli_music_bad_blocks_exit_2(tmp_path, capsys):
    nan_block = tmp_path / "nan.txt"
    nan_block.write_text("2 2\n1+0j,nan+0j\n1+0j,1+0j\n")
    assert main(["music", "--input", str(nan_block)]) == 2
    assert f"{nan_block}:2: non-finite sample" in capsys.readouterr().err
    # finite, but its pseudospectrum is flat: no peak, DegenerateSpectrumError
    zero_block = tmp_path / "zero.txt"
    zero_block.write_text("2 3\n0j,0j\n0j,0j\n0j,0j\n")
    assert main(["music", "--input", str(zero_block)]) == 2
    assert "local maxima" in capsys.readouterr().err


def test_parse_override_value():
    assert _parse_override_value("trials", "3000") == 3000
    assert isinstance(_parse_override_value("trials", "3000"), int)
    assert _parse_override_value("theta", "0.25") == 0.25
    assert _parse_override_value("theta", "20deg") == pytest.approx(math.radians(20.0))
    assert _parse_override_value("theta", "-45 deg") == pytest.approx(-math.pi / 4)
    thetas = _parse_override_value("thetas", "10deg, 0.4")
    assert thetas[0] == pytest.approx(math.radians(10.0)) and thetas[1] == 0.4
    assert _parse_override_value("num_attacker_antennas", "1,2,4") == (1, 2, 4)
    assert _parse_override_value("snr_db", "5,") == (5,)
    assert _parse_override_value("theta", "5deg,") == (pytest.approx(math.radians(5.0)),)
    pairs = ((0.5, 0.5), (0.3, 0.3))
    assert _parse_override_value("beta_pairs", "0.5,0.5;0.3,0.3") == pairs
    assert _parse_override_value("beta_pairs", " 0.5, 0.5 ; 0.3,0.3; ") == pairs
    assert _parse_override_value("beta_pairs", "0.5,0.5;") == ((0.5, 0.5),)
    for raw in ("twenty", "20 degrees", "nan", "inf", "1,x", "5,,", ",", "1;;2", "0.5,x;1,1"):
        with pytest.raises(ConfigError, match="'theta'"):
            _parse_override_value("theta", raw)


def test_cli_reproduce_set_angle_in_degrees(tmp_path, capsys):
    rc = main(["reproduce", "fig5", "--out", str(tmp_path), "--set", "theta=20deg"])
    capsys.readouterr()
    assert rc == 0
    header = (tmp_path / "fig5__0.csv").read_text().splitlines()
    assert f"# theta = {math.radians(20.0)!r}" in header


def test_cli_reproduce_set_non_numeric_exits_2(tmp_path, capsys):
    for item in ("theta=twenty", "snr_eve_db=5,x", "theta=nan"):
        rc = main(["reproduce", "fig5", "--out", str(tmp_path), "--set", item])
        err = capsys.readouterr().err
        assert rc == 2
        assert repr(item.split("=")[0]) in err
    assert not list(tmp_path.iterdir())


def test_cli_reproduce_explicit_seed_zero_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nseed = 9\noutput_dir = {tmp_path}\n")
    assert main(["reproduce", "fig5", "--config", str(cfg), "--seed", "0"]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig5__0.csv").exists()
    assert not (tmp_path / "fig5__9.csv").exists()


def test_cli_attack_opt(capsys):
    rc = main(["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "beta*" in out and "gradient res" in out


def test_cli_attack_opt_aligned_degenerates_to_unity(capsys):
    rc = main(["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.4"])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(
        line.split("=", 1) for line in out.splitlines() if "=" in line
    )
    assert float(fields["beta*        "]) == pytest.approx(1.0, abs=1e-12)
    assert float(fields["phi*         "]) == pytest.approx(0.0, abs=1e-12)


def test_cli_attack_opt_gradient_residual(capsys):
    rc = main(["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    residual = float(out.splitlines()[-1].split("=")[1])
    assert residual <= 1e-9


def test_cli_reproduce_twice_identical_bytes(tmp_path, capsys):
    args = [
        "reproduce", "fig3", "--seed", "7",
        "--set", "phi_points=7", "--set", "trials=2000",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    first = (tmp_path / "a" / "fig3__7.csv").read_bytes()
    second = (tmp_path / "b" / "fig3__7.csv").read_bytes()
    assert first == second


def test_cli_music_synthesized(capsys):
    rc = main(
        [
            "music",
            "--num-antennas",
            "16",
            "--theta",
            "0.3",
            "--snr-db",
            "15",
            "--snapshots",
            "500",
            "--seed",
            "1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    est = float(out.split()[2])
    assert est == pytest.approx(0.3, abs=0.01)


def test_cli_music_from_file_with_spectrum(tmp_path, capsys):
    geom = ArrayGeometry(8)
    block = synthesize_legitimate(geom, -0.2, NoiseModel.from_db(20.0), 400, 2)
    blk = tmp_path / "blk.txt"
    write_signal_block(blk, block)
    spec = tmp_path / "spec.csv"
    rc = main(["music", "--input", str(blk), "--spectrum-csv", str(spec)])
    assert rc == 0
    lines = spec.read_text().splitlines()
    assert lines[0] == "angle_rad,pseudospectrum"
    assert len(lines) > 1000


def test_cli_verify_exit_codes(tmp_path, capsys):
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    common = ["verify", "--acl", str(acl), "--threshold", "0.05", "--num-antennas", "16", "--snapshots", "500"]
    assert main(common + ["--identity", "alice", "--theta", "0.4", "--seed", "1"]) == 0
    assert "ACCEPT" in capsys.readouterr().out
    assert main(common + ["--identity", "alice", "--theta", "0.6", "--seed", "1"]) == 1
    assert "REJECT" in capsys.readouterr().out
    assert main(common + ["--identity", "mallory", "--theta", "0.4", "--seed", "1"]) == 2
    assert main(["verify", "--acl", str(tmp_path / "none.txt"), "--identity", "a", "--threshold", "0.05"]) == 2


def test_cli_sweep_far_frr(capsys):
    rc = main(
        [
            "sweep-far-frr",
            "--theta",
            "0.4",
            "--theta-hat",
            "0.1",
            "--snr-db",
            "10",
            "--thresholds",
            "0.05,0.5",
            "--trials",
            "5",
            "--num-antennas",
            "8",
            "--snapshots",
            "200",
            "--seed",
            "0",
        ]
    )
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "threshold_rad,far,frr"
    assert len(out) == 3


def test_cli_reproduce(tmp_path, capsys):
    rc = main(
        [
            "reproduce",
            "fig5",
            "--seed",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert (tmp_path / "fig5__2.csv").exists()
    assert (tmp_path / "fig5__2.svg").exists()
    assert "[PASS]" in out


def test_cli_reproduce_env_default_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AOA_PLA_OUT", str(tmp_path))
    rc = main(["reproduce", "fig5", "--seed", "5"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "fig5__5.csv").exists()


def test_cli_reproduce_with_overrides_and_bad_key(tmp_path, capsys):
    rc = main(
        ["reproduce", "fig3", "--out", str(tmp_path), "--set", "phi_points=5", "--set", "trials=3000"]
    )
    capsys.readouterr()
    assert rc == 0
    rc = main(["reproduce", "fig3", "--out", str(tmp_path), "--set", "bogus=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bogus" in err


def test_cli_reproduce_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[experiment]\nseed = 9\noutput_dir = {tmp_path}\n")
    rc = main(["reproduce", "fig5", "--config", str(cfg)])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "fig5__9.csv").exists()


def test_cli_reproduce_rejects_override_of_wrong_shape(tmp_path, capsys):
    rc = main(["reproduce", "fig3", "--out", str(tmp_path), "--set", "beta_pairs=0.5,0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "beta_pairs" in err and "tuple of pairs" in err
    for item in ("snr_db=5", "snr_db=5;10", "theta=0.4,"):
        rc = main(["reproduce", "fig2", "--out", str(tmp_path), "--set", item])
        err = capsys.readouterr().err
        assert rc == 2
        assert repr(item.split("=")[0]) in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "figure, item",
    [
        ("fig5", "num_attacker_antennas=0,"),
        ("fig7", "num_attacker_antennas=0,"),
        ("fig6", "num_attacker_antennas=0"),
        ("fig7", "trials=2.5"),
        ("fig2", "trials=0"),
        ("fig2", "grid_step=0"),
        ("fig6", "grid_step=0"),
    ],
)
def test_cli_reproduce_bad_figure_parameter_exits_2(tmp_path, capsys, figure, item):
    rc = main(["reproduce", figure, "--out", str(tmp_path), "--set", item])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and item.split("=")[0] in err
    assert not list(tmp_path.iterdir())


def test_cli_zero_grid_step_exits_2(tmp_path, capsys):
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    for argv in (
        ["music", "--grid-step", "0"],
        ["verify", "--acl", str(acl), "--identity", "alice", "--threshold", "0.05", "--grid-step", "0"],
        ["sweep-far-frr", "--theta-hat", "0.3", "--thresholds", "0.1", "--trials", "2", "--grid-step", "0"],
    ):
        assert main(argv) == 2
        assert "grid_step must be positive and finite" in capsys.readouterr().err


def test_cli_reproduce_fig5_sweep_without_equal_snr_point(tmp_path, capsys):
    rc = main(["reproduce", "fig5", "--out", str(tmp_path), "--set", "snr_eve_db=0,5,10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "equal_snr_point_noise_floor" not in out
    assert "[FAIL]" not in out


def test_cli_reproduce_fig6_one_point_grid_fails_its_checks(tmp_path, capsys):
    # a step above pi leaves the one-point grid [0], which has no local minimum
    rc = main(["reproduce", "fig6", "--out", str(tmp_path), "--set", "grid_step=4"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL] fig6:alias_minima_locations  (minima at grid angles [])" in out


def test_cli_reproduce_set_one_element_tuple_and_tuple_of_pairs(tmp_path, capsys):
    rc = main(
        ["reproduce", "fig2", "--out", str(tmp_path), "--set", "snr_db=5,", "--set", "num_rx_antennas=16,",
         "--set", "trials=2", "--set", "num_snapshots=50"]
    )
    assert rc == 0
    lines = (tmp_path / "fig2__0.csv").read_text().splitlines()
    assert "# snr_db = (5,)" in lines
    assert lines[-1].startswith("5.0,16,")
    rc = main(
        ["reproduce", "fig3", "--out", str(tmp_path), "--set", "beta_pairs=0.5,0.5;0.3,0.3",
         "--set", "phi_points=3", "--set", "trials=2000"]
    )
    capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "fig3__0.csv").read_text().splitlines()
    assert "# beta_pairs = ((0.5, 0.5), (0.3, 0.3))" in lines
    assert [row.split(",")[1:3] for row in lines[-6::3]] == [["0.5", "0.5"], ["0.3", "0.3"]]


def test_cli_reproduce_config_key_it_does_not_read_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[experiment]\nseed = 1\n[array]\nnum_elements = 4\n")
    rc = main(["reproduce", "fig5", "--out", str(tmp_path), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{cfg}:4: unknown configuration key 'array.num_elements'" in err
    assert not list(tmp_path.glob("fig5__*"))
