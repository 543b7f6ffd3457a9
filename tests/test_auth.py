import math

import pytest

from aoa_pla import auth
from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel, synthesize_attack, synthesize_legitimate
from aoa_pla.auth import (
    AoaProfile,
    default_threshold,
    enroll,
    far_frr_sweep,
    load_acl,
    save_acl,
    verify,
)


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
