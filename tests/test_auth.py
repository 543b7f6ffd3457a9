import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoa_pla import auth, music
from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel, SignalBlock, synthesize_attack, synthesize_legitimate
from aoa_pla.auth import (
    AoaProfile,
    enroll,
    far_frr_sweep,
    load_acl,
    save_acl,
    trial_estimates,
    verify,
)
from aoa_pla.experiments import ExperimentConfig, run_fig2
from aoa_pla.music import DegenerateSpectrumError, estimate_aoa


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
    # the reported deviation is inf, yet an infinite threshold still rejects
    assert not verify(profile, block, geom, math.inf, grid_step=2.0).accepted


def test_verify_makes_one_eigendecomposition_and_no_peak_list(monkeypatch):
    calls = []
    real_eig = music.hermitian_eig

    def counting_eig(mat):
        calls.append(np.shape(mat))
        return real_eig(mat)

    def forbidden(*args, **kwargs):
        raise AssertionError("verify left the batched estimator")

    monkeypatch.setattr(music, "hermitian_eig", counting_eig)
    for name in ("pseudospectrum", "estimate_aoa", "estimate_aoa_from_covariance", "peak_angles"):
        monkeypatch.setattr(music, name, forbidden)
    geom = ArrayGeometry(16)
    block = synthesize_legitimate(geom, 0.4, NoiseModel.from_db(10.0), 128, 0)
    assert verify(enroll("alice", [0.4]), block, geom, 0.05).accepted
    assert calls == [(16, 16)]
    assert not {"estimate_aoa", "DegenerateSpectrumError", "pseudospectrum"} & set(vars(auth))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 16),
    st.integers(1, 40),
    st.sampled_from((0.001, 0.05, 2.0)),
    st.integers(0, 2**32 - 1),
)
@example(m=3, n=2, grid_step=0.001, seed=None)
def test_verify_measures_what_estimate_aoa_measures(m, n, grid_step, seed):
    """The estimate equals `estimate_aoa`'s, and is nan exactly where that raises; seed None is the all-zero block."""
    geom = ArrayGeometry(m)
    if seed is None:
        samples = np.zeros((m, n), dtype=complex)
    else:
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    block = SignalBlock(samples)
    decision = verify(enroll("alice", [0.4]), block, geom, 0.05, grid_step)
    try:
        expected = estimate_aoa(block, geom, grid_step=grid_step)[0]
    except DegenerateSpectrumError as exc:
        assert math.isnan(decision.measured_angle) and not decision.accepted
        assert decision.diagnostic == f"degenerate spectrum: {exc}"
    else:
        assert decision.measured_angle == expected and type(decision.measured_angle) is float
        assert decision.deviation == abs(expected - 0.4) and not decision.diagnostic


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


def _degenerate_slots(monkeypatch, trials, slots):
    """Give each (point, side, trial) slot of the dict `slots` the covariance `slots[slot](M)` in place of its draw.

    `trial_estimates` draws all trials of side 0, then of side 1, in trial
    order, and fig2 runs its points in order, so the g-th covariance drawn
    (in any chunks) fills slot (g // (2 * trials), g // trials % 2, g % trials).
    The real draw still runs, so every other slot keeps its covariance.
    Returns the list of slots drawn so far.
    """
    real_draw = auth.synthesize_covariance
    drawn = []

    def draw(geom, *args, **kwargs):
        covs = real_draw(geom, *args, **kwargs)
        for cov in covs:
            g = len(drawn)
            drawn.append((g // (2 * trials), g // trials % 2, g % trials))
            if drawn[-1] in slots:
                cov[...] = slots[drawn[-1]](geom.num_elements)
        return covs

    monkeypatch.setattr(auth, "synthesize_covariance", draw)
    return drawn


@pytest.mark.parametrize("side, rates", [(0, (1.0, 0.25)), (1, (0.75, 0.0))], ids=["legitimate", "attack"])
def test_far_frr_counts_degenerate_trial_as_reject(monkeypatch, side, rates):
    # side 0 is the legitimate link (a reject raises FRR), side 1 the attack (a reject lowers FAR)
    drawn = _degenerate_slots(monkeypatch, 4, {(0, side, 1): np.zeros})
    geom = ArrayGeometry(8)
    noise = NoiseModel.from_db(20.0)
    # a threshold of 10 rad accepts every angle a real estimate can give
    [(_, far, frr)] = far_frr_sweep(
        geom, 0.4, AttackerConfig.single(0.1), noise, [10.0], trials=4, seed=0, num_snapshots=50
    )
    assert len(drawn) == 8
    assert (far, frr) == rates


def test_trial_estimates_degenerate_trial_is_nan(monkeypatch):
    geom = ArrayGeometry(8)
    # two chunks per side, so that a slot of the second chunk is hit too
    trials = auth._TRIAL_CHUNK + 3
    args = (geom, 0.4, AttackerConfig.single(0.1), NoiseModel.from_db(20.0), 50, 0.001, trials, (5, 2))
    clean = trial_estimates(*args)
    assert clean.shape == (2, trials) and not np.isnan(clean).any()
    slots = {(0, 1, 1): np.eye, (0, 0, auth._TRIAL_CHUNK + 1): np.zeros}
    _degenerate_slots(monkeypatch, trials, slots)
    hit = trial_estimates(*args)
    mask = np.ones((2, trials), dtype=bool)
    for _, side, t in slots:
        mask[side, t] = False
    assert np.isnan(hit[~mask]).all()
    assert np.array_equal(hit[mask], clean[mask])


def test_trial_estimates_memory_does_not_grow_with_trials():
    geom = ArrayGeometry(16)
    args = (geom, 0.4, AttackerConfig.single(0.2), NoiseModel.from_db(10.0), 100, 0.001)
    # the first call builds the cached manifold outside the measurement
    trial_estimates(*args, 1, (0,))
    peaks = []
    for trials in (auth._TRIAL_CHUNK, 64 * auth._TRIAL_CHUNK):
        tracemalloc.start()
        try:
            trial_estimates(*args, trials, (0,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the (2, trials) result grows by 16 bytes a trial; 64 KiB covers allocator slack, and a stack of all the
    # trials at once would fail: its covariances and eigenvectors alone take 8 KiB a trial at M = 16
    assert peaks[1] - peaks[0] <= 16 * 64 * auth._TRIAL_CHUNK + 64 * 1024


def test_run_fig2_degenerate_trial_makes_its_point_nan(monkeypatch):
    config = ExperimentConfig(
        "fig2", overrides=dict(trials=2, num_snapshots=50, snr_db=(5.0, 15.0), num_rx_antennas=(8,))
    )
    clean = run_fig2(config).rows
    assert (clean["degenerate_alice"][0], clean["degenerate_eve"][0]) == (0, 0)
    _degenerate_slots(monkeypatch, 2, {(1, 1, 0): np.eye})
    rows = run_fig2(config).rows
    assert rows[0] == clean[0]
    assert math.isnan(rows["mean_est_eve_rad"][1])
    assert rows["mean_est_alice_rad"][1] == clean["mean_est_alice_rad"][1]
    assert (rows["degenerate_alice"][1], rows["degenerate_eve"][1]) == (0, 1)


def test_far_frr_validation():
    geom = ArrayGeometry(4)
    noise = NoiseModel.from_db(10.0)
    attacker = AttackerConfig.single(0.1)
    with pytest.raises(ValueError):
        far_frr_sweep(geom, 0.4, attacker, noise, [], 10, 0)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        far_frr_sweep(geom, 0.4, attacker, noise, [0.1], 0, 0)
    for bad in (2.5, 3.0, "10"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            far_frr_sweep(geom, 0.4, attacker, noise, [0.1], bad, 0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="threshold must be > 0"):
            far_frr_sweep(geom, 0.4, attacker, noise, [0.05, bad], 10, 0)
    for bad in (2.0, -1.6, math.nan):
        with pytest.raises(ValueError, match=r"legitimate angle must lie in \[-pi/2, pi/2\]"):
            far_frr_sweep(geom, bad, attacker, noise, [0.05], 10, 0)


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
        ("a,0.4,0.01,3\nb,-1.6,0.01,3\n", r":2: enrolled angle of identity 'b' must lie in \[-pi/2, pi/2\], got -1.6"),
        ("a,0.4,inf,3\n", r":1: .*non-finite .* spread inf"),
        ("a,0.4,0.01,3\nalice,0.4,-0.01,0\n", r":2: identity 'alice' has a negative spread -0.01"),
        ("a,0.4,0.01,0\n", r":1: identity 'a' has an estimate count 0 below 1"),
        ("a,0.4,0.01,three\n", r":1: invalid literal"),
        ("a,north,0.01,3\n", r":1: could not convert"),
        ("alice ,0.4,0.01,5\n", r":1: identity 'alice ' contains a comma, a line break or surrounding whitespace"),
        ("a,0.4,0.01,3\n,0.4,0.01,5\n", r":2: empty identity"),
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
        ([AoaProfile("a", 0.4, -0.01, 1)], "negative spread -0.01"),
        ([AoaProfile("a", 0.4, 0.0, 0)], "estimate count 0 below 1"),
        ([AoaProfile("", 0.4, 0.01, 5)], "empty identity"),
        ([AoaProfile("a", 3.0, 0.0, 1)], r"enrolled angle of identity 'a' must lie in \[-pi/2, pi/2\]"),
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
