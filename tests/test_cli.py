import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel, SignalBlock, synthesize_attack, synthesize_legitimate
from aoa_pla.auth import enroll, save_acl
from aoa_pla import music
from aoa_pla.music import estimate_aoa, pseudospectrum, sample_covariance
from aoa_pla.cli import (
    COMMANDS,
    build_parser,
    main,
    read_signal_block,
    write_signal_block,
    _parse_angle,
    _parse_override_value,
)
from oracles import mse_gradient_single


def _synth(path, *flags):
    """Write a block with `aoa-pla synth`; return its path as a string."""
    assert main(["synth", "--out", str(path), *flags]) == 0
    return str(path)


def test_parse_angle_deg_suffix():
    assert _parse_angle("0.4") == 0.4
    assert _parse_angle("90 deg") == pytest.approx(math.pi / 2)
    assert _parse_angle("-45deg") == pytest.approx(-math.pi / 4)
    for raw in ("nan", "inf", "-inf deg"):
        with pytest.raises(ValueError, match="non-finite"):
            _parse_angle(raw)


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


# finite doubles, with the edges a text format can lose: signed zeros, subnormals, the largest magnitudes
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308, -1.79e308]
_SAMPLE_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 5), st.just(2)), elements=_SAMPLE_FLOATS),
)
def test_signal_block_round_trip_is_bit_exact(tmp_path_factory, parts):
    samples = parts.view(complex)[..., 0]
    path = tmp_path_factory.mktemp("block") / "block.txt"
    write_signal_block(path, SignalBlock(samples))
    back = read_signal_block(path).samples
    assert np.array_equal(back, samples)
    for part in ("real", "imag"):
        assert np.array_equal(np.signbit(getattr(back, part)), np.signbit(getattr(samples, part)))


@pytest.mark.parametrize(
    "line",
    ["1+2J,1+0j", "1_0+0j,1+0j", "j,1+0j", "1+0j,1+j", "1+0j,1+0j # x", "1+0j,"],
)
def test_signal_block_grammar_is_numpy_complex_only(tmp_path, line):
    # Python's complex() accepts the first four forms; the block grammar does not, nor a comment or an empty entry.
    # The blank line 3 still counts, so the bad snapshot is on line 4.
    path = tmp_path / "block.txt"
    path.write_text(f"2 2\n1+0j,1+0j\n\n{line}\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:4: malformed complex literal in {re.escape(repr(line))}"):
        read_signal_block(path)


def test_signal_block_names_the_first_bad_line(tmp_path):
    path = tmp_path / "block.txt"
    # every line has one entry too many: the whole body parses, with the wrong shape
    path.write_text("2 2\n1+0j,2+0j,3+0j\n1+0j,2+0j,3+0j\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:2: expected 2 entries, got 3"):
        read_signal_block(path)
    # a bad literal on line 3 comes before a short line 4
    path.write_text("2 3\n1+0j,2+0j\n1+0j,x\n1+0j\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:3: malformed complex literal"):
        read_signal_block(path)
    for header in ("2 0", "0 1", "x 1"):
        path.write_text(f"{header}\n1+0j,2+0j\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}:1: bad header line"):
            read_signal_block(path)


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of an argparse run that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name, *_ in COMMANDS]
    + [
        ["--help"],
        [],
        ["bogus"],
        ["verify", "--acl", "a", "--identity", "x", "--threshold", "0.1"],
        ["music", "--spacing", "0.5"],
        ["verify", "--acl", "a", "--identity", "x", "--threshold", "0.1", "--input", "b", "extra"],
    ],
)
def test_lazy_parser_text_equals_full_parser_text(capsys, argv):
    # `main` builds only the subparser argv[0] names; the full parser is the oracle
    lazy = _parse_outcome(capsys, main, argv)
    full = _parse_outcome(capsys, build_parser().parse_args, argv)
    assert lazy == full
    assert lazy[0] == (0 if "--help" in argv else 2)
    if argv in ([], ["bogus"], ["--help"]) or "extra" in argv:
        assert all(name in lazy[1] + lazy[2] for name, *_ in COMMANDS)


def test_build_parser_builds_only_the_named_subcommand():
    def built(command):
        (sub,) = [a for a in build_parser(command)._actions if a.dest == "command"]
        return list(sub.choices)

    names = [name for name, *_ in COMMANDS]
    assert names == ["reproduce", "attack-opt", "synth", "music", "verify", "sweep-far-frr"]
    for name in names:
        assert built(name) == [name]
    for other in (None, "bogus", "--help", "verif"):
        assert built(other) == names


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


def test_cli_overflowing_covariance_exits_2(tmp_path, capsys):
    # finite samples whose sample covariance overflows: an error, not a degenerate spectrum
    block = tmp_path / "big.txt"
    block.write_text("2 1\n1e200+0j,1e200+0j\n")
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    verify = ["verify", "--acl", str(acl), "--identity", "alice", "--threshold", "0.05"]
    for argv in (["music"], verify):
        # numpy's overflow warnings would reach stderr ahead of the error, with the library's path
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            assert main(argv + ["--input", str(block)]) == 2
        assert warned == []
        captured = capsys.readouterr()
        assert captured.err == "error: expected finite entries, got one of non-finite magnitude\n"
        assert captured.out == ""


def test_cli_music_eigh_failure_exits_2(tmp_path, capsys, monkeypatch):
    def fail(mat):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    block = tmp_path / "blk.txt"
    block.write_text("2 1\n1+0j,1+0j\n")
    assert main(["music", "--input", str(block)]) == 2
    assert "error: Eigenvalues did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("m", [3, 16])
def test_cli_all_zero_block_is_degenerate(tmp_path, capsys, m):
    # a zero covariance has no signal subspace, so its spectrum is flat
    zero_block = tmp_path / "zero.txt"
    zero_block.write_text(f"{m} 4\n" + f"{','.join(['0j'] * m)}\n" * 4)
    assert main(["music", "--input", str(zero_block)]) == 2
    assert "error: found 0 local maxima, need 1" in capsys.readouterr().err
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    rc = main(["verify", "--acl", str(acl), "--identity", "alice", "--threshold", "0.05", "--input", str(zero_block)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("REJECT: measured nan rad, deviation inf")
    assert "diagnostic: degenerate spectrum: found 0 local maxima, need 1" in out


def test_cli_spacing_whose_phases_overflow_exits_2(tmp_path, capsys):
    message = "error: spacing 1e+308 overflows the steering phases of M = 16 elements: 2 pi spacing (M - 1) is not finite\n"
    out = tmp_path / "blk.txt"
    assert main(["synth", "--out", str(out), "--spacing", "1e308"]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert main(["synth", "--out", str(out)]) == 0
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    verify = ["verify", "--acl", str(acl), "--identity", "alice", "--threshold", "0.05", "--input", str(out)]
    capsys.readouterr()
    assert main(verify + ["--spacing", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


@pytest.mark.parametrize(
    "figure, items, error",
    [
        ("fig2", ("grid_step=2.0", "trials=2", "num_snapshots=5"), "nothing to plot"),
        ("fig5", ("snr_alice_db=-300",), "is empty"),
    ],
    ids=["one_point_grid", "flat_y_range"],
)
def test_cli_reproduce_writes_no_file_when_the_plot_fails(tmp_path, capsys, figure, items, error):
    rc = main(["reproduce", figure, "--out", str(tmp_path), *(f for item in items for f in ("--set", item))])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
        with pytest.raises(ValueError, match="'theta'"):
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


def test_cli_reproduce_rejects_a_repeated_set_key(tmp_path, capsys):
    for items in (["theta=0.3", "theta=0.4"], ["theta=0.3", " theta =0.3"]):
        rc = main(["reproduce", "fig5", "--out", str(tmp_path), *(f for item in items for f in ("--set", item))])
        assert rc == 2
        assert "--set 'theta' given more than once" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_reproduce_default_seed_and_out(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "fig5"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig5__0.csv", "fig5__0.svg"]


def test_cli_reproduce_takes_only_seed_out_and_set(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    assert "--seed SEED" in help_text and "default: 0" in help_text
    assert "--out OUT" in help_text and "default: ." in help_text
    assert "--set KEY=VALUE" in help_text
    assert "--config" not in help_text
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig5", "--config", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


def test_cli_non_finite_angle_flag_exits_2(capsys):
    for argv, flag in (
        (["attack-opt", "--M", "16", "--theta", "nan", "--theta-hat", "0.2"], "--theta"),
        (["attack-opt", "--M", "16", "--theta", "inf", "--theta-hat", "0.2"], "--theta"),
        (["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "nan deg"], "--theta-hat"),
        (["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.2,inf"], "--theta-hat"),
        (["sweep-far-frr", "--theta-hat", "0.2", "--thresholds", "nan,0.05", "--trials", "2"], "--thresholds"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


def _attack_opt(capsys, *flags):
    """`attack-opt`'s printed lines as {name: value text}."""
    assert main(["attack-opt", *flags]) == 0
    return {key.strip(): value.strip() for key, value in (line.split("=", 1) for line in capsys.readouterr().out.splitlines())}


def test_cli_attack_opt(capsys):
    fields = _attack_opt(capsys, "--M", "16", "--theta", "0.4", "--theta-hat", "0.2")
    assert list(fields) == ["beta*", "phi*", "|q*|^2", "rank", "zeta*", "floor gap"]
    # the single-antenna closed form's optimum (oracles.optimal_single_precoder)
    assert float(fields["beta*"]) == pytest.approx(0.21104067244652516, rel=1e-12)
    assert float(fields["phi*"]) == pytest.approx(4.930360261389827, rel=1e-12)
    assert float(fields["floor gap"]) == pytest.approx(15.287389353173094, rel=1e-12)
    assert float(fields["|q*|^2"]) == pytest.approx(0.21104067244652516**2, rel=1e-12)
    assert fields["rank"] == "1"
    # four antennas at distinct sines span C^4 and reach the noise floor with no angle aliased
    fields = _attack_opt(capsys, "--M", "4", "--theta", "0.4", "--theta-hat", "0.1,0.7,-0.5,1.2")
    assert len(fields["beta*"].split(",")) == len(fields["phi*"].split(",")) == 4
    assert fields["rank"] == "4"
    assert float(fields["floor gap"]) <= 1e-20
    assert float(fields["zeta*"]) == NoiseModel.from_db(15.0).floor


def test_cli_attack_opt_aligned_degenerates_to_unity(capsys):
    fields = _attack_opt(capsys, "--M", "16", "--theta", "0.4", "--theta-hat", "0.4")
    assert float(fields["beta*"]) == pytest.approx(1.0, abs=1e-12)
    assert float(fields["phi*"]) == pytest.approx(0.0, abs=1e-12)


def test_cli_attack_opt_gradient_residual(capsys):
    fields = _attack_opt(capsys, "--M", "16", "--theta", "0.4", "--theta-hat", "0.2")
    beta, phi = float(fields["beta*"]), float(fields["phi*"])
    assert math.hypot(*mse_gradient_single(ArrayGeometry(16), 0.4, 0.2, beta, phi)) <= 1e-9


def test_cli_attack_opt_overflowing_noise_floor_exits_2(capsys):
    # each 1/snr is about 1.6e308 at -3082 dB, so the floor 1/snr_a + 1/snr_e overflows
    argv = ["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.2"]
    assert main(argv + ["--snr-alice-db", "-3082", "--snr-eve-db", "-3082"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"error: 1/snr_legit \+ 1/snr_attacker overflows for snr_legit=\S+ and snr_attacker=\S+", captured.err)
    assert main(argv + ["--snr-alice-db", "-3082", "--snr-eve-db", "15"]) == 0
    assert "floor gap" in capsys.readouterr().out


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


def test_cli_music_synthesized(tmp_path, capsys):
    flags = ["--num-antennas", "16", "--theta", "0.3", "--snr-db", "15", "--snapshots", "500", "--seed", "1"]
    blk = _synth(tmp_path / "blk.txt", *flags)
    capsys.readouterr()
    rc = main(["music", "--input", blk])
    out = capsys.readouterr().out
    assert rc == 0
    est = float(out.split()[2])
    assert est == pytest.approx(0.3, abs=0.01)


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--theta", "0.3"], lambda geom, noise: synthesize_legitimate(geom, 0.3, noise, 40, 7)),
        (
            ["--theta-hat", "0.2", "--beta", "0.7", "--phi", "1.0"],
            lambda geom, noise: synthesize_attack(geom, AttackerConfig.single(0.2, 0.7, 1.0), noise, 40, 7),
        ),
    ],
    ids=["legitimate", "attack"],
)
def test_cli_synth_block_reads_back_bit_equal_to_the_library(tmp_path, capsys, flags, expected):
    common = ["--M", "8", "--spacing", "0.4", "--snr-db", "5", "--snapshots", "40", "--seed", "7"]
    blk = _synth(tmp_path / "blk.txt", *common, *flags)
    assert capsys.readouterr().out == f"wrote {blk}\n"
    block = expected(ArrayGeometry(8, 0.4), NoiseModel.from_db(5.0))
    assert np.array_equal(read_signal_block(blk).samples, block.samples)


def test_cli_synth_uses_every_flag_given(tmp_path, capsys):
    out = tmp_path / "blk.txt"
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(out), "--theta", "0.3", "--theta-hat", "-0.5"])
    assert exc.value.code == 2
    assert "argument --theta-hat: not allowed with argument --theta" in capsys.readouterr().err
    # the default values too: a flag given is a flag used
    for flags in (
        ["--beta", "7"], ["--phi", "2"], ["--theta", "0.3", "--beta", "7", "--phi", "2"], ["--beta", "1.0"], ["--phi", "0"]
    ):
        assert main(["synth", "--out", str(out), *flags]) == 2
        assert "--beta and --phi set the attack precoder; they need --theta-hat" in capsys.readouterr().err
    assert not out.exists()


def test_cli_music_and_verify_read_only_block_files(capsys):
    for argv in (
        ["music", "--theta", "0.3"],
        ["verify", "--acl", "acl.txt", "--identity", "alice", "--threshold", "0.05"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "the following arguments are required: --input" in capsys.readouterr().err
    for command, flags in (
        ("music", {"--input", "--spacing", "--num-sources", "--grid-step", "--spectrum-csv"}),
        ("verify", {"--acl", "--identity", "--threshold", "--input", "--spacing", "--grid-step"}),
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == flags | {"--help"}


def test_cli_reproduce_negative_seed_exits_2(tmp_path, capsys):
    # reproduce --seed goes through the same parser as synth and sweep-far-frr
    for figure in ("fig5", "fig3"):
        for seed in ("-1", "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(["reproduce", figure, "--out", str(tmp_path), "--seed", seed])
            assert exc.value.code == 2
            assert f"argument --seed: seed must be an integer >= 0, got {seed}\n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_sweep_far_frr_requires_theta_hat(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-far-frr", "--thresholds", "0.1", "--trials", "2"])
    assert exc.value.code == 2
    assert "the following arguments are required: --theta-hat" in capsys.readouterr().err


def test_cli_negative_seed_names_the_flag(tmp_path, capsys):
    for argv in (
        ["synth", "--out", str(tmp_path / "blk.txt")],
        ["sweep-far-frr", "--theta-hat", "0.2", "--thresholds", "0.1", "--trials", "2"],
    ):
        # a non-integer seed gets the same rule, not argparse's message naming the parser function
        for seed in ("-1", "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seed", seed])
            assert exc.value.code == 2
            assert f"argument --seed: seed must be an integer >= 0, got {seed}\n" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_negative_precoder_amplitude_exits_2_and_writes_nothing(tmp_path, capsys):
    # the message names the figure parameter and the value given
    for argv, err in (
        (
            ["reproduce", "fig3d_same", "--out", str(tmp_path), "--set", "betas=-0.5,0.5"],
            "precoder amplitudes in 'betas' for fig3d_same must be >= 0, got (-0.5, 0.5)",
        ),
        (
            ["reproduce", "fig3d_diff", "--out", str(tmp_path), "--set", "betas=0.5,-1e-300"],
            "precoder amplitudes in 'betas' for fig3d_diff must be >= 0, got (0.5, -1e-300)",
        ),
        (
            ["reproduce", "fig3", "--out", str(tmp_path), "--set", "beta_pairs=0.5,0.5;-0.3,0.3"],
            "precoder amplitudes in 'beta_pairs' for fig3 must be >= 0, got ((0.5, 0.5), (-0.3, 0.3))",
        ),
        (
            ["reproduce", "fig3", "--out", str(tmp_path), "--set", "beta_pairs=-0.3,0.3;"],
            "precoder amplitudes in 'beta_pairs' for fig3 must be >= 0, got ((-0.3, 0.3),)",
        ),
        (
            ["synth", "--out", str(tmp_path / "blk.txt"), "--theta-hat", "0.2", "--beta", "-1"],
            "precoder amplitudes must be >= 0, got (-1.0,)",
        ),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {err}\n"
        assert captured.out == ""
    assert not list(tmp_path.iterdir())


def test_cli_snr_db_outside_float_range_exits_2(tmp_path, capsys):
    for argv, shown in (
        (["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.2", "--snr-eve-db", "4000"], "4000.0"),
        (["reproduce", "fig5", "--out", str(tmp_path), "--set", "snr_alice_db=4000"], "4000.0"),
        (["reproduce", "fig3", "--out", str(tmp_path), "--set", "snr_db=4000"], "4000.0"),
        (["synth", "--out", str(tmp_path / "blk.txt"), "--snr-db", "4000"], "4000.0"),
        (["sweep-far-frr", "--theta-hat", "0.2", "--thresholds", "0.1", "--trials", "2", "--snr-db", "4000"], "4000.0"),
        # a linear SNR of 0 or nan is reported by its dB value too
        (["synth", "--out", str(tmp_path / "blk.txt"), "--snr-db", "-4000"], "-4000.0"),
        (["synth", "--out", str(tmp_path / "blk.txt"), "--snr-db=-inf"], "-inf"),
        (["synth", "--out", str(tmp_path / "blk.txt"), "--snr-db", "nan"], "nan"),
        (["attack-opt", "--M", "16", "--theta", "0.4", "--theta-hat", "0.2", "--snr-eve-db", "-4000"], "-4000.0"),
        (["reproduce", "fig5", "--out", str(tmp_path), "--set", "snr_eve_db=-4000,"], "-4000.0"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"error: SNR of {shown} dB is out of a float's range" in captured.err
        assert captured.out == ""
    assert not list(tmp_path.iterdir())


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
    # plain float literals that read back exactly
    expected = pseudospectrum(sample_covariance(block), geom)
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(table[:, 0], expected.grid) and np.array_equal(table[:, 1], expected.values)


def test_cli_music_spectrum_csv_takes_one_eigendecomposition(tmp_path, capsys, monkeypatch):
    calls = []
    eig = music.hermitian_eig
    monkeypatch.setattr(music, "hermitian_eig", lambda mat: calls.append(1) or eig(mat))
    geom = ArrayGeometry(8)
    attacker = AttackerConfig((-0.3, 0.5), [1.0, 0.8])
    block = synthesize_attack(geom, attacker, NoiseModel.from_db(20.0), 400, 2)
    blk, spec = tmp_path / "blk.txt", tmp_path / "spec.csv"
    write_signal_block(blk, block)
    assert main(["music", "--input", str(blk), "--num-sources", "2", "--spectrum-csv", str(spec)]) == 0
    assert len(calls) == 1
    expected = pseudospectrum(sample_covariance(block), geom, num_sources=2)
    assert capsys.readouterr().out == "".join(
        f"estimated AoA: {a!r} rad\n" for a in estimate_aoa(block, geom, 2)
    ) + f"wrote {spec}\n"
    rows = [f"{a!r},{v!r}" for a, v in zip(expected.grid.tolist(), expected.values.tolist())]
    assert spec.read_text() == "\n".join(["angle_rad,pseudospectrum"] + rows) + "\n"
    # a flat spectrum: exit 2 and no CSV
    zero_block, flat = tmp_path / "zero.txt", tmp_path / "flat.csv"
    zero_block.write_text("3 2\n0j,0j,0j\n0j,0j,0j\n")
    assert main(["music", "--input", str(zero_block), "--spectrum-csv", str(flat)]) == 2
    assert "error: found 0 local maxima, need 1" in capsys.readouterr().err
    assert not flat.exists()


def test_cli_verify_exit_codes(tmp_path, capsys):
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    flags = ["--num-antennas", "16", "--snapshots", "500", "--seed", "1"]
    block = {theta: _synth(tmp_path / f"blk{theta}.txt", *flags, "--theta", theta) for theta in ("0.4", "0.6")}
    capsys.readouterr()
    common = ["verify", "--acl", str(acl), "--threshold", "0.05"]
    assert main(common + ["--identity", "alice", "--input", block["0.4"]]) == 0
    assert "ACCEPT" in capsys.readouterr().out
    assert main(common + ["--identity", "alice", "--input", block["0.6"]]) == 1
    assert "REJECT" in capsys.readouterr().out
    assert main(common + ["--identity", "mallory", "--input", block["0.4"]]) == 2
    none = str(tmp_path / "none.txt")
    assert main(["verify", "--acl", none, "--identity", "a", "--threshold", "0.05", "--input", block["0.4"]]) == 2


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


def test_cli_sweep_far_frr_non_positive_threshold_exits_2(capsys):
    for thresholds in ("0.05,0", "0.05,-1"):
        rc = main(["sweep-far-frr", "--theta-hat", "0.2", "--thresholds", thresholds, "--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "threshold must be > 0" in captured.err
        assert captured.out == ""


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
        # a standard error needs two trials
        ("fig3", "trials=1"),
        ("fig7", "trials=1"),
        ("fig2", "trials=0"),
        ("fig2", "grid_step=0"),
        ("fig6", "grid_step=0"),
        # the legitimate angle lies in [-pi/2, pi/2]
        *((figure, "theta=3") for figure in ("fig2", "fig3", "fig3d_same", "fig3d_diff", "fig5", "fig7")),
        ("fig6", "thetas=0.2,3"),
        # a repeated sweep point
        ("fig5", "num_attacker_antennas=1,1"),
        ("fig2", "num_rx_antennas=8,8"),
        # an array needs two elements
        ("fig5", "num_rx_antennas=1"),
        ("fig2", "num_rx_antennas=1,2"),
    ],
)
def test_cli_reproduce_bad_figure_parameter_exits_2(tmp_path, capsys, figure, item):
    rc = main(["reproduce", figure, "--out", str(tmp_path), "--set", item])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and item.split("=")[0] in err
    assert not list(tmp_path.iterdir())


def test_cli_attack_opt_legitimate_angle_outside_half_circle_exits_2(capsys):
    assert main(["attack-opt", "--M", "4", "--theta", "3", "--theta-hat", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: legitimate angle must lie in [-pi/2, pi/2], got 3.0" in captured.err


def test_cli_verify_acl_angle_outside_half_circle_exits_2(tmp_path, capsys):
    acl = tmp_path / "acl.txt"
    acl.write_text("alice,3.0,0.0,1\n")
    blk = _synth(tmp_path / "blk.txt", "--snapshots", "50")
    capsys.readouterr()
    argv = ["verify", "--acl", str(acl), "--identity", "alice", "--threshold", "0.05", "--input", blk]
    assert main(argv) == 2
    assert ":1: enrolled angle of identity 'alice' must lie in [-pi/2, pi/2], got 3.0" in capsys.readouterr().err


def test_cli_zero_grid_step_exits_2(tmp_path, capsys):
    acl = tmp_path / "acl.txt"
    save_acl(acl, [enroll("alice", [0.4])])
    blk = _synth(tmp_path / "blk.txt", "--snapshots", "50")
    capsys.readouterr()
    for argv in (
        ["music", "--input", blk, "--grid-step", "0"],
        ["verify", "--acl", str(acl), "--identity", "alice", "--threshold", "0.05", "--input", blk, "--grid-step", "0"],
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


def test_cli_reproduce_integer_overrides_print_as_floats(tmp_path, capsys):
    # the exit code is not asserted: fig3 at few trials may miss its 2 % gap check
    main(["reproduce", "fig5", "--out", str(tmp_path), "--set", "snr_eve_db=0,5"])
    lines = (tmp_path / "fig5__0.csv").read_text().splitlines()
    header = lines.index("snr_eve_db,num_attacker_antennas,zeta")
    assert {row.split(",")[0] for row in lines[header + 1 :]} == {"0.0", "5.0"}
    main(["reproduce", "fig3", "--out", str(tmp_path), "--set", "beta_pairs=1,0;", "--set", "phi_points=5"])
    capsys.readouterr()
    lines = (tmp_path / "fig3__0.csv").read_text().splitlines()
    header = lines.index("phi0_rad,beta0,beta1,zeta_theory,zeta_sim,zeta_sim_stderr")
    assert [row.split(",")[1:3] for row in lines[header + 1 :]] == [["1.0", "0.0"]] * 5
