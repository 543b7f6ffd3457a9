import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoa_pla import auth
from aoa_pla.arrays import (
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    SignalBlock,
    derive_rng,
    synthesize_attack,
    synthesize_legitimate,
)
from aoa_pla.experiments import ExperimentConfig, run_fig2
from aoa_pla.music import (
    DegenerateSpectrumError,
    NonHermitianError,
    estimate_aoa,
    hermitian_eig,
    pseudospectrum,
    sample_covariance,
    _angle_grid,
    _find_peaks,
    _manifold,
)


def test_sample_covariance_matches_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    block = SignalBlock(x)
    cov = sample_covariance(block)
    direct = sum(np.outer(x[:, i], x[:, i].conj()) for i in range(9)) / 9
    assert np.allclose(cov, direct, atol=1e-13)
    assert np.allclose(cov, cov.conj().T, atol=0.0)


def test_hermitian_eig_residual_and_orthonormality():
    rng = np.random.default_rng(1)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mat = raw + raw.conj().T
    vals, vecs = hermitian_eig(mat)
    assert np.all(np.diff(vals) >= 0)
    assert np.allclose(mat @ vecs, vecs * vals, atol=1e-12)
    assert np.allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-12)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[1.0, 2.0], [3.0, 1.0]]))
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))


def test_angle_grid_contains_round_decimals():
    grid = _angle_grid(0.001, math.pi / 2)
    assert 0.2 in grid
    assert -0.4 in grid
    assert grid[0] >= -math.pi / 2 and grid[-1] <= math.pi / 2
    assert np.all(np.diff(grid) > 0)


@pytest.mark.parametrize("half_width", [math.pi / 2, math.pi])
@pytest.mark.parametrize("step", [0.001, 0.0037, 0.05, 1.0, 4.0])
def test_angle_grid_is_the_floor_arithmetic(step, half_width):
    kmax = int(math.floor(half_width / step))
    assert np.array_equal(_angle_grid(step, half_width), step * np.arange(-kmax, kmax + 1))


@pytest.mark.parametrize("step", [0.0, -0.001, math.inf, math.nan])
def test_angle_grid_rejects_bad_step(step):
    with pytest.raises(ValueError, match="grid_step must be positive and finite"):
        _angle_grid(step, math.pi / 2)
    block = synthesize_legitimate(ArrayGeometry(4), 0.1, NoiseModel.noiseless(), 8, 0)
    with pytest.raises(ValueError, match="grid_step"):
        estimate_aoa(block, ArrayGeometry(4), grid_step=step)


def test_find_peaks_tie_breaks_toward_smaller_angle():
    grid = np.array([-1.0, 0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
    peaks = _find_peaks(grid, values)
    assert peaks[0] == (0.0, 5.0)
    assert peaks[1] == (2.0, 5.0)


def test_noiseless_estimate_is_exact_on_grid():
    geom = ArrayGeometry(16)
    block = synthesize_legitimate(geom, 0.4, NoiseModel.noiseless(), 8, 0)
    est = estimate_aoa(block, geom, num_sources=1, grid_step=0.001)
    assert est[0] == pytest.approx(0.4, abs=1e-12)


def test_noisy_estimate_close_to_truth():
    geom = ArrayGeometry(16)
    block = synthesize_legitimate(geom, -0.3, NoiseModel.from_db(15.0), 2000, 3)
    est = estimate_aoa(block, geom)[0]
    assert abs(est + 0.3) <= 0.01


def test_attack_from_alias_angle_estimated_as_legitimate():
    # sin(pi - theta) = sin(theta): a 1D ULA cannot tell them apart
    geom = ArrayGeometry(16)
    theta = 0.4
    att = AttackerConfig.single(math.pi - theta)
    block = synthesize_attack(geom, att, NoiseModel.noiseless(), 4, 0)
    est = estimate_aoa(block, geom)[0]
    assert est == pytest.approx(theta, abs=1e-12)


def test_two_source_estimation():
    geom = ArrayGeometry(16)
    rng = np.random.default_rng(5)
    a1 = np.exp(-1j * math.pi * np.arange(16) * math.sin(0.4))
    a2 = np.exp(-1j * math.pi * np.arange(16) * math.sin(-0.2))
    s = rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400))
    x = np.column_stack([a1, a2]) @ s
    x += 0.01 * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
    est = sorted(estimate_aoa(SignalBlock(x), geom, num_sources=2))
    assert est[0] == pytest.approx(-0.2, abs=0.01)
    assert est[1] == pytest.approx(0.4, abs=0.01)


def test_pseudospectrum_finite_in_noiseless_case():
    geom = ArrayGeometry(8)
    block = synthesize_legitimate(geom, 0.1, NoiseModel.noiseless(), 4, 0)
    spec = pseudospectrum(sample_covariance(block), geom)
    assert np.all(np.isfinite(spec.values))
    assert spec.peaks[0][0] == pytest.approx(0.1, abs=1e-12)


def test_pseudospectrum_validation():
    geom = ArrayGeometry(4)
    block = synthesize_legitimate(geom, 0.1, NoiseModel.noiseless(), 4, 0)
    cov = sample_covariance(block)
    with pytest.raises(ValueError):
        pseudospectrum(cov, geom, num_sources=4)
    with pytest.raises(ValueError):
        pseudospectrum(cov, geom, num_sources=0)


def test_degenerate_spectrum_raises():
    # a one-point grid cannot host a strict local maximum
    geom = ArrayGeometry(3)
    block = synthesize_legitimate(geom, 0.1, NoiseModel.noiseless(), 4, 0)
    with pytest.raises(DegenerateSpectrumError):
        estimate_aoa(block, geom, grid_step=2.0)


def _uncached_pseudospectrum(mat, geom, grid_step, num_sources):
    """(grid, values, peaks) with the manifold built afresh, as before it was cached."""
    _, vecs = hermitian_eig(mat)
    noise_basis = vecs[:, : geom.num_elements - num_sources]
    grid = _angle_grid(grid_step, math.pi / 2)
    m = np.arange(geom.num_elements)
    manifold = np.exp(-1j * geom.wavenumber_scale * np.outer(m, np.sin(grid)))
    denom = np.sum(np.abs(noise_basis.conj().T @ manifold) ** 2, axis=0)
    values = 1.0 / np.maximum(denom, np.finfo(float).tiny)
    return grid, values, _find_peaks(grid, values)


def _assert_matches_uncached(mat, geom, grid_step, num_sources):
    grid, values, peaks = _uncached_pseudospectrum(mat, geom, grid_step, num_sources)
    spec = pseudospectrum(mat, geom, grid_step, num_sources)
    assert np.array_equal(spec.grid, grid)
    assert np.array_equal(spec.values, values)
    assert spec.peaks == peaks


@st.composite
def _music_scenarios(draw):
    m = draw(st.integers(2, 24))
    spacing = draw(st.floats(0.1, 2.0))
    grid_step = draw(st.sampled_from((0.001, 0.0037, 0.01, 0.05)))
    num_sources = draw(st.integers(1, m - 1))
    num_snapshots = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((m, num_snapshots)) + 1j * rng.standard_normal((m, num_snapshots))
    return ArrayGeometry(m, spacing), grid_step, num_sources, SignalBlock(x)


@settings(max_examples=200, deadline=None)
@given(_music_scenarios())
def test_cached_pseudospectrum_bit_equal_to_uncached(scenario):
    geom, grid_step, num_sources, block = scenario
    cov = sample_covariance(block)
    # the first call may build the manifold, the second reuses it
    _assert_matches_uncached(cov, geom, grid_step, num_sources)
    _assert_matches_uncached(cov, geom, grid_step, num_sources)


def test_manifold_not_shared_across_spacing_or_grid_step():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 30)) + 1j * rng.standard_normal((8, 30))
    cov = sample_covariance(SignalBlock(x))
    half, quarter = ArrayGeometry(8, 0.5), ArrayGeometry(8, 0.25)
    for geom, step in ((half, 0.01), (quarter, 0.01), (half, 0.05), (half, 0.01)):
        _assert_matches_uncached(cov, geom, step, 1)
    assert not np.array_equal(_manifold(half, 0.01)[1], _manifold(quarter, 0.01)[1])
    assert _manifold(half, 0.01)[0].size != _manifold(half, 0.05)[0].size
    assert _manifold(half, 0.01)[1] is _manifold(ArrayGeometry(8, 0.5), 0.01)[1]


def test_cached_grid_and_manifold_are_read_only():
    geom = ArrayGeometry(16)
    block = synthesize_legitimate(geom, 0.4, NoiseModel.from_db(10.0), 200, 4)
    before = estimate_aoa(block, geom, grid_step=0.001)
    spec = pseudospectrum(sample_covariance(block), geom, 0.001)
    with pytest.raises(ValueError, match="read-only"):
        spec.grid[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        _manifold(geom, 0.001)[1][0, 0] = 0.0
    assert estimate_aoa(block, geom, grid_step=0.001) == before


def test_run_fig2_matches_uncached_reference(monkeypatch):
    overrides = dict(trials=3, num_snapshots=100, snr_db=(-10.0, 15.0), num_rx_antennas=(2, 16))
    config = ExperimentConfig("fig2", seed=4, overrides=overrides)
    p = config.params()
    attacker = AttackerConfig((p["theta_hat"],) * 2, (0.5, 0.5), (0.0, 0.0))

    def reference_estimate(block, geom):
        _, _, peaks = _uncached_pseudospectrum(sample_covariance(block), geom, p["grid_step"], 1)
        return peaks[0][0]

    expected = []
    for point, (m, snr_db) in enumerate((m, s) for m in p["num_rx_antennas"] for s in p["snr_db"]):
        geom = ArrayGeometry(m)
        noise = NoiseModel.from_db(snr_db)
        for t in range(p["trials"]):
            rng = derive_rng(config.seed, point, 0, t)
            block = synthesize_legitimate(geom, p["theta"], noise, p["num_snapshots"], rng)
            expected.append(reference_estimate(block, geom))
            rng = derive_rng(config.seed, point, 1, t)
            block = synthesize_attack(geom, attacker, noise, p["num_snapshots"], rng)
            expected.append(reference_estimate(block, geom))

    seen = []

    def recording_estimate(*args, **kwargs):
        estimates = estimate_aoa(*args, **kwargs)
        seen.append(estimates[0])
        return estimates

    monkeypatch.setattr(auth, "estimate_aoa", recording_estimate)
    run_fig2(config)
    assert seen == expected
