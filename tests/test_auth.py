import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoa_pla import auth
from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel, synthesize_attack, synthesize_legitimate
from aoa_pla.auth import (
    AoaProfile,
    default_threshold,
    enroll,
    far_frr_sweep,
    load_acl,
    save_acl,
    trial_estimates,
    verify,
)
from aoa_pla.experiments import ExperimentConfig, run_fig2


def test_enroll_statistics():
    profile = enroll("alice", [0.40, 0.41, 0.39])
    assert profile.identity == "alice"
    assert profile.enrolled_angle == pytest.approx(0.4, abs=1e-12)
    assert profile.enrollment_spread == pytest.approx(0.01, abs=1e-12)
    assert profile.num_enrollment_estimates == 3


def test_enroll_single_estimate_and_empty():
    profile = enroll("bob", [0.2])
    assert profile.enrollment_spread == 0.0
    with pytest.raises(ValueError):
        enroll("bob", [])


def test_default_threshold_floor():
    tight = AoaProfile("a", 0.4, 0.0, 5)
    assert default_threshold(tight) == 0.02
    loose = AoaProfile("a", 0.4, 0.05, 5)
    assert default_threshold(loose, grid_step=0.001) == pytest.approx(0.151)


def test_verify_accepts_legitimate_and_rejects_offset():
    geom = ArrayGeometry(16)
    noise = NoiseModel.from_db(15.0)
    profile = enroll("alice", [0.4])
    good = synthesize_legitimate(geom, 0.4, noise, 2000, 0)
    decision = verify(profile, good, geom, 0.05)
    assert decision.accepted
    assert decision.deviation <= 0.05
    bad = synthesize_legitimate(geom, 0.6, noise, 2000, 1)
    decision = verify(profile, bad, geom, 0.05)
    assert not decision.accepted
    assert decision.deviation > 0.05


def test_verify_rejects_degenerate_block():
    geom = ArrayGeometry(4)
    profile = enroll("alice", [0.4])
    block = synthesize_legitimate(geom, 0.4, NoiseModel.noiseless(), 4, 0)
    decision = verify(profile, block, geom, 0.05, grid_step=2.0)
    assert not decision.accepted
    assert math.isinf(decision.deviation)
    assert decision.diagnostic


def test_verify_threshold_validation():
    geom = ArrayGeometry(4)
    profile = enroll("alice", [0.4])
    block = synthesize_legitimate(geom, 0.4, NoiseModel.noiseless(), 4, 0)
    with pytest.raises(ValueError):
        verify(profile, block, geom, 0.0)


def test_far_frr_monotone_in_threshold():
    geom = ArrayGeometry(8)
    noise = NoiseModel.from_db(10.0)
    attacker = AttackerConfig.single(0.1)
    sweep = far_frr_sweep(
        geom, 0.4, attacker, noise, [0.01, 0.05, 0.2, 0.5], trials=20, seed=0, num_snapshots=200
    )
    fars = [far for _, far, _ in sweep]
    frrs = [frr for _, _, frr in sweep]
    assert fars == sorted(fars)
    assert frrs == sorted(frrs, reverse=True)
    assert all(0.0 <= v <= 1.0 for v in fars + frrs)


def test_far_frr_counts_degenerate_legitimate_trial_as_reject(monkeypatch):
    real_estimate = auth.estimate_aoa
    legit_calls = []

    def estimate(block, *args, **kwargs):
        if block.origin == "legitimate":
            legit_calls.append(block)
            if len(legit_calls) == 2:
                raise auth.DegenerateSpectrumError("injected")
        return real_estimate(block, *args, **kwargs)

    monkeypatch.setattr(auth, "estimate_aoa", estimate)
    geom = ArrayGeometry(8)
    noise = NoiseModel.from_db(20.0)
    # a threshold of 10 rad accepts every angle a real estimate can give
    [(_, far, frr)] = far_frr_sweep(
        geom, 0.4, AttackerConfig.single(0.1), noise, [10.0], trials=4, seed=0, num_snapshots=50
    )
    assert len(legit_calls) == 4
    assert frr == 0.25
    assert far == 1.0


def _degenerate_on_call(monkeypatch, n):
    """Make auth.estimate_aoa raise DegenerateSpectrumError on its n-th call only."""
    real_estimate = auth.estimate_aoa
    calls = []

    def estimate(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise auth.DegenerateSpectrumError("injected")
        return real_estimate(*args, **kwargs)

    monkeypatch.setattr(auth, "estimate_aoa", estimate)


def test_trial_estimates_degenerate_trial_is_nan(monkeypatch):
    geom = ArrayGeometry(8)
    args = (geom, 0.4, AttackerConfig.single(0.1), NoiseModel.from_db(20.0), 50, 0.001, 3, (5, 2))
    clean = trial_estimates(*args)
    assert clean.shape == (2, 3) and not np.isnan(clean).any()
    # calls alternate legitimate / attack per trial, so call 4 is the attack side of trial 1
    _degenerate_on_call(monkeypatch, 4)
    hit = trial_estimates(*args)
    assert np.isnan(hit[1, 1])
    mask = np.ones((2, 3), dtype=bool)
    mask[1, 1] = False
    assert np.array_equal(hit[mask], clean[mask])


def test_run_fig2_degenerate_trial_makes_its_point_nan(monkeypatch):
    config = ExperimentConfig(
        "fig2", overrides=dict(trials=2, num_snapshots=50, snr_db=(5.0, 15.0), num_rx_antennas=(8,))
    )
    clean = run_fig2(config).rows
    # point 0 makes calls 1-4, so call 6 is the attack side of point 1, trial 0
    _degenerate_on_call(monkeypatch, 6)
    rows = run_fig2(config).rows
    assert rows[0] == clean[0]
    assert math.isnan(rows[1][3]) and rows[1][2] == clean[1][2]


def test_far_frr_validation():
    geom = ArrayGeometry(4)
    noise = NoiseModel.from_db(10.0)
    attacker = AttackerConfig.single(0.1)
    with pytest.raises(ValueError):
        far_frr_sweep(geom, 0.4, attacker, noise, [], 10, 0)
    with pytest.raises(ValueError):
        far_frr_sweep(geom, 0.4, attacker, noise, [0.1], 0, 0)


def test_acl_roundtrip_exact(tmp_path):
    path = tmp_path / "acl.txt"
    profiles = [
        enroll("alice", [0.4, 0.41]),
        enroll("node-7", [0.123456789012345]),
    ]
    save_acl(path, profiles)
    back = load_acl(path)
    assert set(back) == {"alice", "node-7"}
    for p in profiles:
        q = back[p.identity]
        assert q.enrolled_angle == p.enrolled_angle
        assert q.enrollment_spread == p.enrollment_spread
        assert q.num_enrollment_estimates == p.num_enrollment_estimates


def test_acl_rejects_malformed_line(tmp_path):
    path = tmp_path / "acl.txt"
    path.write_text("alice,0.4,0.0\n")
    with pytest.raises(ValueError):
        load_acl(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,0.4,0.01,3\n\na,0.5,0.01,3\n", r":3: duplicate identity 'a'"),
        ("a,0.4,0.01,3\na,nan,0.01,3\n", r":2: .*non-finite angle nan"),
        ("a,0.4,inf,3\n", r":1: .*non-finite .* spread inf"),
        ("a,0.4,0.01,three\n", r":1: invalid literal"),
        ("a,north,0.01,3\n", r":1: could not convert"),
    ],
)
def test_acl_load_rejects_bad_entries_with_line(tmp_path, text, message):
    path = tmp_path / "acl.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_acl(path)


@pytest.mark.parametrize(
    "profiles, message",
    [
        ([AoaProfile("a,b", 0.4, 0.0, 1)], "comma"),
        ([AoaProfile("a\nb", 0.4, 0.0, 1)], "line break"),
        ([AoaProfile("a\u2028", 0.4, 0.0, 1)], "line break"),
        ([AoaProfile(" a", 0.4, 0.0, 1)], "whitespace"),
        ([AoaProfile("a", 0.4, 0.0, 1), AoaProfile("a", 0.5, 0.0, 1)], "duplicate identity 'a'"),
        ([AoaProfile("a", math.nan, 0.0, 1)], "non-finite angle nan"),
    ],
)
def test_acl_save_rejects_entries_load_cannot_read_back(tmp_path, profiles, message):
    path = tmp_path / "acl.txt"
    with pytest.raises(ValueError, match=message):
        save_acl(path, profiles)
    assert not path.exists()


_identities = st.text(max_size=6)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_identities, _finite, _finite, st.integers(0, 10**6)), max_size=4))
def test_acl_save_load_roundtrip_or_refuse(entries):
    """save_acl either refuses, writing nothing, or load_acl reads back exactly what was saved."""
    profiles = [AoaProfile(*entry) for entry in entries]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "acl.txt"
        try:
            save_acl(path, profiles)
        except ValueError:
            assert not path.exists()
            return
        assert list(load_acl(path).values()) == profiles


def test_acl_empty_roundtrip(tmp_path):
    path = tmp_path / "acl.txt"
    save_acl(path, [])
    assert load_acl(path) == {}


def test_attack_block_from_alias_is_accepted():
    # sine-aliased attacker defeats the angle check by construction
    geom = ArrayGeometry(16)
    noise = NoiseModel.from_db(15.0)
    profile = enroll("alice", [0.4])
    attacker = AttackerConfig.single(math.pi - 0.4)
    block = synthesize_attack(geom, attacker, noise, 2000, 5)
    assert verify(profile, block, geom, 0.05).accepted
