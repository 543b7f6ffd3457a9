import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoa_pla import auth, music
from aoa_pla.arrays import (
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    SignalBlock,
    attack_wavefront,
    derive_rng,
    legitimate_wavefront,
    steering_vector,
    synthesize_attack,
    synthesize_covariance,
    synthesize_legitimate,
)
from aoa_pla.experiments import ExperimentConfig, run_fig2
from aoa_pla.music import (
    _HERMITIAN_TOL,
    DegenerateSpectrumError,
    NonHermitianError,
    estimate_aoa,
    estimate_aoa_from_covariance,
    hermitian_eig,
    one_source_estimates,
    pseudospectrum,
    sample_covariance,
    _angle_grid,
    _find_peaks,
    _grid_tables,
    _rounding_allowance,
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
    # a nan Hermitian defect compares False, so a non-finite entry needs its own check
    for bad in (math.inf, math.nan, complex(math.inf, 0.0), complex(0.0, math.nan)):
        stack = np.stack([np.eye(3, dtype=complex)] * 2)
        stack[1, 0, 2] = stack[1, 2, 0] = bad
        for mat in (stack[1], stack):
            with pytest.raises(ValueError, match="non-finite magnitude"):
                hermitian_eig(mat)
    vals, _ = hermitian_eig(1e300 * np.eye(2))
    assert np.allclose(vals, 1e300, rtol=1e-12, atol=0.0)


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


def test_pseudospectrum_rejects_a_stack_of_covariances():
    geom = ArrayGeometry(4)
    covs = np.stack([np.eye(4), np.eye(4)])
    with pytest.raises(ValueError, match=r"expected one covariance matrix, got shape \(2, 4, 4\)"):
        pseudospectrum(covs, geom)
    with pytest.raises(ValueError, match=r"got shape \(2, 4, 4\)"):
        estimate_aoa_from_covariance(covs, geom)
    # the stack is the batched estimator's, an empty one too
    assert one_source_estimates(covs, geom).shape == (2,)
    assert one_source_estimates(np.zeros((2, 0, 4, 4)), geom).shape == (2, 0)


def test_degenerate_spectrum_raises():
    # a one-point grid cannot host a strict local maximum
    geom = ArrayGeometry(3)
    block = synthesize_legitimate(geom, 0.1, NoiseModel.noiseless(), 4, 0)
    with pytest.raises(DegenerateSpectrumError):
        estimate_aoa(block, geom, grid_step=2.0)


@pytest.mark.parametrize("m", [2, 3, 4, 16])
@pytest.mark.parametrize("make", [lambda m: np.zeros((m, m)), np.eye], ids=["zero", "identity"])
def test_undetermined_signal_subspace_gives_flat_spectrum(make, m):
    geom = ArrayGeometry(m)
    spec = pseudospectrum(make(m), geom)
    assert spec.peaks == []
    assert np.all(spec.values == 1.0 / (m - 1))
    with pytest.raises(DegenerateSpectrumError, match="found 0 local maxima, need 1"):
        estimate_aoa_from_covariance(make(m), geom)
    # one source above a white floor separates: its top eigenvalue is M + 1, the rest 1
    a = steering_vector(geom, 0.3)
    assert estimate_aoa_from_covariance(make(m) + np.outer(a, a.conj()), geom) == [pytest.approx(0.3, abs=1e-12)]


def test_pseudospectrum_rejects_covariance_of_another_size():
    with pytest.raises(ValueError, match="covariance is 3 x 3, the array has 4 elements"):
        pseudospectrum(np.eye(3), ArrayGeometry(4))


def test_covariance_estimates_match_snapshot_estimates_at_low_snr():
    # M = 2, -10 dB, N = 2000, Alice at 0.4 rad (criterion 9c's setting). On
    # each drawn covariance the estimate is the arg R[1,0] oracle to a grid
    # step; the covariance-path estimates and the snapshot-path estimates then
    # pass a two-sample Kolmogorov-Smirnov test at alpha = 0.001.
    geom = ArrayGeometry(2)
    noise = NoiseModel.from_db(-10.0)
    theta, snapshots, trials, alpha = 0.4, 2000, 400, 0.001
    kappa = geom.wavenumber_scale
    a = steering_vector(geom, theta)
    drawn, snapshot = [], []
    for t in range(trials):
        cov = synthesize_covariance(geom, a, noise.snr_legit, snapshots, derive_rng(93, 0, t))
        est = estimate_aoa_from_covariance(cov, geom)[0]
        assert abs(est - math.asin(-np.angle(cov[1, 0]) / kappa)) <= 0.001
        drawn.append(est)
        block = synthesize_legitimate(geom, theta, noise, snapshots, derive_rng(93, 1, t))
        snapshot.append(estimate_aoa(block, geom)[0])
    both = np.sort(np.concatenate([drawn, snapshot]))
    cdf_gap = np.max(np.abs(
        np.searchsorted(np.sort(drawn), both, side="right") - np.searchsorted(np.sort(snapshot), both, side="right")
    )) / trials
    critical = math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt(2.0 / trials)
    assert cdf_gap <= critical
    # sd about 0.03 rad over 400 trials: 0.01 rad is over 6 standard errors of the mean
    assert abs(np.mean(drawn) - theta) <= 0.01


def _uncached_pseudospectrum(mat, geom, grid_step, num_sources):
    """(grid, values, peaks) with the manifold built afresh from one scalar
    `steering_vector` call per angle, bypassing the cache and the batched path.

    Signal-subspace arithmetic, with flat heights 1 / (M - num_sources) when
    the num_sources largest eigenvalues do not separate from the rest."""
    m = geom.num_elements
    vals, vecs = hermitian_eig(mat)
    grid = _angle_grid(grid_step, math.pi / 2)
    if vals[m - num_sources] - vals[m - num_sources - 1] <= _HERMITIAN_TOL * max(vals[-1], 0.0):
        values = np.full(grid.shape, 1.0 / (m - num_sources))
    else:
        signal_basis = vecs[:, m - num_sources :]
        manifold = np.stack([steering_vector(geom, angle) for angle in grid], axis=1)
        # the product of the production path: numpy's einsum loop, not BLAS
        proj = np.einsum("mk,mg->kg", signal_basis.conj(), manifold)
        denom = m - np.sum(proj.real**2 + proj.imag**2, axis=0)
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


# The signal-subspace denominator M - ||E_s^H a||^2 equals the noise-subspace
# sum ||E_n^H a||^2 up to rounding: 3000 random covariances (M <= 24) differed
# by at most 2.2e-15 * M. Two grid denominators that agree to 2 * _DENOM_RTOL * M
# may therefore swap order between the two forms; no others can.
_DENOM_RTOL = 1e-13


@settings(max_examples=200, deadline=None)
@given(_music_scenarios())
def test_signal_subspace_peaks_equal_noise_subspace_peaks(scenario):
    geom, grid_step, num_sources, block = scenario
    m = geom.num_elements
    cov = sample_covariance(block)
    spec = pseudospectrum(cov, geom, grid_step, num_sources)
    vals, vecs = hermitian_eig(cov)
    if vals[m - num_sources] - vals[m - num_sources - 1] <= _HERMITIAN_TOL * max(vals[-1], 0.0):
        assert spec.peaks == [] and np.all(spec.values == spec.values[0])
        return
    manifold = steering_vector(geom, spec.grid).T
    denom = np.sum(np.abs(vecs[:, : m - num_sources].conj().T @ manifold) ** 2, axis=0)
    tol = _DENOM_RTOL * m
    assert np.max(np.abs(1.0 / spec.values - np.maximum(denom, np.finfo(float).tiny))) <= tol
    noise_peaks = _find_peaks(spec.grid, 1.0 / np.maximum(denom, np.finfo(float).tiny))
    index = {float(angle): i for i, angle in enumerate(spec.grid)}
    # a grid point whose denominator ties a neighbour's may gain or lose its peak
    near_tie = np.zeros(denom.shape, dtype=bool)
    close = np.abs(np.diff(denom)) <= 2.0 * tol
    near_tie[:-1] |= close
    near_tie[1:] |= close
    signal_order = [index[a] for a, _ in spec.peaks if not near_tie[index[a]]]
    noise_order = [index[a] for a, _ in noise_peaks if not near_tie[index[a]]]
    assert sorted(signal_order) == sorted(noise_order)
    rank = {i: r for r, i in enumerate(noise_order)}
    for r, i in enumerate(signal_order):
        for j in signal_order[r + 1 :]:
            if rank[j] < rank[i]:
                assert abs(denom[i] - denom[j]) <= 2.0 * tol


def test_manifold_not_shared_across_spacing_or_grid_step():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 30)) + 1j * rng.standard_normal((8, 30))
    cov = sample_covariance(SignalBlock(x))
    half, quarter = ArrayGeometry(8, 0.5), ArrayGeometry(8, 0.25)
    for geom, step in ((half, 0.01), (quarter, 0.01), (half, 0.05), (half, 0.01)):
        _assert_matches_uncached(cov, geom, step, 1)
    assert not np.array_equal(_grid_tables(half, 0.01).manifold, _grid_tables(quarter, 0.01).manifold)
    assert _grid_tables(half, 0.01).grid.size != _grid_tables(half, 0.05).grid.size
    assert _grid_tables(half, 0.01).manifold is _grid_tables(ArrayGeometry(8, 0.5), 0.01).manifold


def test_cached_grid_and_manifold_are_read_only():
    geom = ArrayGeometry(16)
    block = synthesize_legitimate(geom, 0.4, NoiseModel.from_db(10.0), 200, 4)
    before = estimate_aoa(block, geom, grid_step=0.001)
    spec = pseudospectrum(sample_covariance(block), geom, 0.001)
    with pytest.raises(ValueError, match="read-only"):
        spec.grid[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        _grid_tables(geom, 0.001).manifold[0, 0] = 0.0
    assert estimate_aoa(block, geom, grid_step=0.001) == before


def test_run_fig2_matches_uncached_reference(monkeypatch):
    # two-trial chunks, so that the three trials of each (point, side) span two of them
    monkeypatch.setattr(auth, "_TRIAL_CHUNK", 2)
    overrides = dict(trials=3, num_snapshots=100, snr_db=(-10.0, 15.0), num_rx_antennas=(2, 16))
    config = ExperimentConfig("fig2", seed=4, overrides=overrides)
    p = config.params()
    attacker = AttackerConfig((p["theta_hat"],) * 2, (0.5, 0.5))

    def reference_estimate(cov, geom):
        _, _, peaks = _uncached_pseudospectrum(cov, geom, p["grid_step"], 1)
        return peaks[0][0]

    expected = []
    for point, (m, snr_db) in enumerate((m, s) for m in p["num_rx_antennas"] for s in p["snr_db"]):
        geom = ArrayGeometry(m)
        noise = NoiseModel.from_db(snr_db)
        links = ((steering_vector(geom, p["theta"]), noise.snr_legit), (attack_wavefront(geom, attacker), noise.snr_attacker))
        for side, (wavefront, snr) in enumerate(links):
            # one generator per (point, side), drawn chunk by chunk
            rng = derive_rng(config.seed, point, side)
            for start in range(0, p["trials"], 2):
                covs = synthesize_covariance(geom, wavefront, snr, p["num_snapshots"], rng, min(2, p["trials"] - start))
                expected.extend(reference_estimate(cov, geom) for cov in covs)

    seen = []

    def recording_estimates(*args, **kwargs):
        estimates = one_source_estimates(*args, **kwargs)
        seen.extend(estimates.tolist())
        return estimates

    monkeypatch.setattr(auth, "one_source_estimates", recording_estimates)
    run_fig2(config)
    assert seen == expected


def _estimate_or_nan(cov, geom, grid_step):
    try:
        return estimate_aoa_from_covariance(cov, geom, 1, grid_step)[0]
    except DegenerateSpectrumError:
        return math.nan


def _constructed_covariance(kind, geom, rng):
    """A covariance of one `kind`: random, or one built to hit a corner of the peak rule."""
    m = geom.num_elements
    if kind == "random":
        shape = (m, rng.integers(1, 41))
        return sample_covariance(SignalBlock(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    if kind == "edge":
        # a source beyond the last grid angle: the spectrum climbs to the grid's end
        a = steering_vector(geom, rng.choice((-1.0, 1.0)) * math.pi / 2)
        return np.outer(a, a.conj()) + rng.uniform(0.0, 0.1) * np.eye(m)
    if kind == "plateau":
        # a rank-one basis vector e_j: |e_j^H a|^2 = 1 at every angle, so no strict maximum, yet a clear gap
        cov = np.zeros((m, m))
        j = rng.integers(m)
        cov[j, j] = 1.0
        return cov
    if kind == "mirrored":
        # a real covariance has a spectrum symmetric in angle: two equal peaks at +-theta
        a = steering_vector(geom, rng.uniform(0.1, 1.2))
        return np.outer(a, a.conj()).real + rng.uniform(0.0, 0.1) * np.eye(m)
    if kind == "two_lobe":
        # two far-apart sources of nearly equal power: the principal eigenvector's spectrum has two lobes
        # of nearly equal height, and the best coarse point of the bounded scan can sit on the lower one
        a, b = steering_vector(geom, rng.uniform(-1.2, -0.2)), steering_vector(geom, rng.uniform(0.2, 1.2))
        power = 1.0 + rng.uniform(0.0, 1e-3)
        return np.outer(a, a.conj()) + power * np.outer(b, b.conj()) + rng.uniform(0.0, 0.1) * np.eye(m)
    if kind == "near_identity":
        # eigenvalues within the degenerate gap, yet a principal eigenvector whose spectrum has peaks
        raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        return np.eye(m) + 1e-14 * (raw + raw.conj().T)
    return np.zeros((m, m)) if kind == "zero" else np.eye(m)


_COVARIANCE_KINDS = ("random", "edge", "plateau", "mirrored", "two_lobe", "near_identity", "zero", "identity")


@st.composite
def _covariance_stacks(draw):
    geom = ArrayGeometry(draw(st.integers(2, 16)), draw(st.floats(0.1, 2.0)))
    # 0.1 is a grid of 31 points, under two coarse cells of the bounded scan; 0.17 two cells, the last two
    # steps wide; 0.19 a grid of 17 points, one cell; 0.001001 a last cell two steps wide; 2.0 a grid of
    # one point, which is scanned by no call
    grid_step = draw(st.sampled_from((1e-4, 0.001, 0.001001, 0.0037, 0.05, 0.1, 0.17, 0.19, 2.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_COVARIANCE_KINDS), min_size=1, max_size=6))
    return geom, grid_step, np.stack([_constructed_covariance(kind, geom, rng) for kind in kinds])


@settings(max_examples=200, deadline=None)
@given(_covariance_stacks())
def test_one_source_estimates_equal_per_matrix_estimates(scenario):
    geom, grid_step, covs = scenario
    expected = [_estimate_or_nan(cov, geom, grid_step) for cov in covs]
    assert np.array_equal(one_source_estimates(covs, geom, grid_step), expected, equal_nan=True)
    # a single covariance is the stack of shape ()
    single = one_source_estimates(covs[0], geom, grid_step)
    assert single.shape == () and np.array_equal(single, expected[0], equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(_covariance_stacks())
def test_bounded_scan_heights_equal_the_full_spectrum_bit_for_bit(scenario):
    """Every height the estimator computes on a subset of the grid's columns is the full grid's `_heights` there."""
    geom, grid_step, covs = scenario
    manifold = _grid_tables(geom, grid_step).manifold
    real_heights = music._heights
    calls = []

    def recording_heights(basis, columns):
        heights = real_heights(basis, columns)
        calls.append((len(basis), columns, heights))
        return heights

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(music, "_heights", recording_heights)
        one_source_estimates(covs, geom, grid_step)
    _, vecs = hermitian_eig(covs)
    full = music._heights(vecs[..., -1:], manifold)
    index = {column.tobytes(): g for g, column in enumerate(manifold.T)}
    # a grid of one point has no strict peak, so no call; otherwise the first call is the bounded scan's,
    # on every row (undetermined ones too), and a later one is the whole spectrum of one row with a tie
    if manifold.shape[1] == 1:
        assert not calls
        return
    rows, columns, heights = calls[0]
    assert rows == len(covs)
    at = [index[column.tobytes()] for column in columns.T]
    assert np.array_equal(heights, full[:, at])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 24), st.floats(0.1, 2.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_gain_slope_within_the_bernstein_bound(m, spacing, steered, seed):
    """g = |u^H a(s)|^2 rises at most kappa (M - 1) M / 2 per unit of s = sin(angle), up to the derived rounding allowance.

    g - M/2 has g's degree and |g - M/2| <= M/2. A steered u (a steering
    vector with a little noise) puts g's whole mass M in one lobe, where the
    slope comes within a small factor of the bound.
    """
    geom = ArrayGeometry(m, spacing)
    kappa = geom.wavenumber_scale
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    if steered:
        u = steering_vector(geom, rng.uniform(-1.5, 1.5)) + 0.05 * u
    u /= np.linalg.norm(u)
    angles = np.arcsin(np.linspace(-1.0, 1.0, 20_001))
    gains = music._gains(u[:, None], steering_vector(geom, angles).T)
    rise = np.abs(np.diff(gains))
    assert np.all(rise <= kappa * (m - 1) * m / 2 * np.abs(np.diff(np.sin(angles))) + _rounding_allowance(m, kappa))


def test_bounded_scan_evaluates_under_a_quarter_of_the_grid(monkeypatch):
    """fig2's stacks at M = 16, 15 dB: one `_heights` call per chunk, on fewer than 25% of the grid's columns.

    A fall back to the full scan makes a second call, or one on every column.
    """
    p = ExperimentConfig("fig2").params()
    geom = ArrayGeometry(16)
    grid = _grid_tables(geom, p["grid_step"]).grid
    noise = NoiseModel.from_db(15.0)
    attacker = AttackerConfig((p["theta_hat"],) * 2, (0.5, 0.5))
    real_heights = music._heights
    evaluated = []

    def recording_heights(basis, columns):
        evaluated.append(columns.shape[1])
        return real_heights(basis, columns)

    monkeypatch.setattr(music, "_heights", recording_heights)
    sides = ((legitimate_wavefront(geom, p["theta"]), noise.snr_legit), (attack_wavefront(geom, attacker), noise.snr_attacker))
    for side, (wavefront, snr) in enumerate(sides):
        rng = derive_rng(0, side)
        for _ in range(8):
            covs = synthesize_covariance(geom, wavefront, snr, p["num_snapshots"], rng, auth._TRIAL_CHUNK)
            before = len(evaluated)
            estimates = one_source_estimates(covs, geom, p["grid_step"])
            assert len(evaluated) == before + 1
            assert evaluated[-1] < 0.25 * grid.size
            assert np.all(np.abs(estimates - (p["theta"], p["theta_hat"])[side]) <= 0.05)


@pytest.mark.parametrize(
    "kinds, grid_step, full_scans",
    [
        (("zero", "identity", "zero"), 0.001, 0),
        (("random", "edge", "mirrored"), 0.19, 0),
        (("random", "plateau", "zero"), 2.0, None),
        (("random", "plateau", "edge", "plateau"), 0.001, 2),
    ],
    ids=["undetermined", "one_cell", "one_point", "ties"],
)
def test_one_source_estimates_scan_once_and_take_the_whole_grid_only_on_a_tie(kinds, grid_step, full_scans):
    """One `_heights` call on the scanned columns of every row, then one on the whole manifold per tie row.

    An undetermined row is nan by rule and a one-cell grid takes the
    bounded scan; a one-point grid has no strict peak, so makes no call.
    """
    geom = ArrayGeometry(8)
    manifold = _grid_tables(geom, grid_step).manifold
    rng = np.random.default_rng(5)
    covs = np.stack([_constructed_covariance(kind, geom, rng) for kind in kinds])
    real_heights = music._heights
    calls = []

    def recording_heights(basis, columns):
        calls.append((basis.shape, columns is manifold))
        return real_heights(basis, columns)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(music, "_heights", recording_heights)
        estimates = one_source_estimates(covs, geom, grid_step)
    assert np.array_equal(estimates, [_estimate_or_nan(cov, geom, grid_step) for cov in covs], equal_nan=True)
    if full_scans is None:
        assert not calls and np.isnan(estimates).all()
        return
    assert calls[0] == ((len(covs), 8, 1), False)
    assert calls[1:] == [((8, 1), True)] * full_scans


def test_one_source_estimates_at_the_grid_edge_on_a_plateau_and_on_a_tie():
    geom = ArrayGeometry(8)
    grid = _grid_tables(geom, 0.001).grid
    rng = np.random.default_rng(3)
    covs = {kind: _constructed_covariance(kind, geom, rng) for kind in ("edge", "plateau", "mirrored")}
    edge, plateau, mirrored = one_source_estimates(np.stack(list(covs.values())), geom)
    assert edge in (grid[0], grid[-1])
    # the plateau has a clear eigenvalue gap, but no strict local maximum
    vals, _ = hermitian_eig(covs["plateau"])
    assert vals[-1] - vals[-2] == 1.0 and math.isnan(plateau)
    # the two mirrored peaks tie exactly, and the smaller angle wins
    spectrum = pseudospectrum(covs["mirrored"], geom)
    (angle0, height0), (angle1, height1) = spectrum.peaks[:2]
    assert height0 == height1 and angle0 == -angle1 < 0
    assert mirrored == angle0


def test_hermitian_eig_checks_each_matrix_of_a_stack():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
    stack = raw + raw.conj().swapaxes(1, 2)
    vals, vecs = hermitian_eig(stack)
    for mat, v, e in zip(stack, vals, vecs):
        v1, e1 = hermitian_eig(mat)
        assert np.array_equal(v, v1) and np.array_equal(e, e1)
    # a defect of 1e-9 is within tolerance of a matrix whose largest entry is 1e6, not of one near 1
    stack[0] *= 1e6
    stack[0, 0, 1] += 1e-9
    hermitian_eig(stack)
    stack[2, 0, 1] += 1e-9
    with pytest.raises(NonHermitianError, match=r"Hermitian defect 1\.000e-09 exceeds tolerance") as in_stack:
        hermitian_eig(stack)
    with pytest.raises(NonHermitianError) as alone:
        hermitian_eig(stack[2])
    assert str(in_stack.value) == str(alone.value)
