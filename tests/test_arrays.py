import math
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aoa_pla.arrays import (
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    SignalBlock,
    _precoders,
    _strict_lower,
    attack_wavefront,
    derive_rng,
    steering_vector,
    synthesize_attack,
    synthesize_covariance,
    synthesize_legitimate,
)
from aoa_pla.attack import mse_closed_form, mse_delta
from aoa_pla.music import sample_covariance
import oracles


def test_steering_vector_matches_elementwise_definition():
    geom = ArrayGeometry(8, spacing=0.5)
    theta = 0.37
    a = steering_vector(geom, theta)
    for m in range(8):
        expected = np.exp(-1j * math.pi * m * math.sin(theta))
        assert abs(a[m] - expected) < 1e-15
    assert a[0] == 1.0 + 0.0j


def test_steering_vector_norm_is_num_elements():
    for m in (2, 5, 16, 33):
        geom = ArrayGeometry(m)
        a = steering_vector(geom, -0.81)
        assert np.vdot(a, a).real == pytest.approx(m, abs=1e-12)


def test_steering_vector_respects_spacing():
    geom = ArrayGeometry(4, spacing=0.25)
    a = steering_vector(geom, 0.5)
    expected = np.exp(-1j * 0.5 * math.pi * np.arange(4) * math.sin(0.5))
    assert np.allclose(a, expected, atol=1e-15)


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 33),
    st.floats(0.1, 2.0),
    hnp.arrays(float, st.sampled_from([(), (1,), (7,), (1, 1), (3, 5)]), elements=st.floats(-math.pi, math.pi)),
)
def test_batched_steering_vector_bit_equal_to_stacked_scalar_calls(m, spacing, angles):
    geom = ArrayGeometry(m, spacing)
    got = steering_vector(geom, angles)
    assert got.shape == angles.shape + (m,)
    stacked = np.array([steering_vector(geom, float(a)) for a in angles.ravel()]).reshape(angles.shape + (m,))
    assert np.array_equal(_bits(got), _bits(stacked))


def _wavefront_loop(geom, attacker):
    """A q accumulated one antenna at a time, the reference for `attack_wavefront`."""
    combined = np.zeros(geom.num_elements, dtype=complex)
    for angle, q in zip(attacker.angles, attacker.precoders):
        combined += q * steering_vector(geom, angle)
    return combined


@st.composite
def _attackers(draw):
    size = draw(st.one_of(st.just(1), st.just(32), st.integers(2, 31)))
    angles = draw(st.lists(st.floats(-1.5, 1.5), min_size=size, max_size=size))
    # one of the two amplitude strategies is exactly zero, so zero precoders (and signed zeros) occur
    betas = draw(st.lists(st.just(0.0) | st.floats(0.0, 2.0), min_size=size, max_size=size))
    phis = draw(st.lists(st.floats(0.0, 7.0), min_size=size, max_size=size))
    return AttackerConfig(angles, _precoders(betas, phis))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 33), st.floats(0.1, 2.0), _attackers())
@example(5, 0.5, AttackerConfig((0.3,), _precoders((0.0,), (2.0,))))
@example(5, 0.5, AttackerConfig((0.3,) * 32, _precoders((0.0,) * 32, (2.0,) * 32)))
def test_attack_wavefront_bit_equal_to_per_antenna_loop(m, spacing, attacker):
    geom = ArrayGeometry(m, spacing)
    assert np.array_equal(_bits(attack_wavefront(geom, attacker)), _bits(_wavefront_loop(geom, attacker)))


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(1)
    with pytest.raises(ValueError):
        ArrayGeometry(4, spacing=0.0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, spacing=math.inf)
    assert ArrayGeometry(4).wavenumber_scale == pytest.approx(math.pi)


def test_geometry_rejects_a_spacing_whose_phases_overflow():
    # kappa = 2 pi d is inf at d = 1e308; at d = 1e307 kappa is finite but kappa (M - 1) is not at M = 100;
    # an M of 10^400 is beyond a float's range
    for m, spacing in ((16, 1e308), (100, 1e307), (10**400, 0.5)):
        with pytest.raises(ValueError, match=re.escape(f"spacing {spacing!r} overflows the steering phases of M = {m} ")):
            ArrayGeometry(m, spacing)
    assert np.isfinite(steering_vector(ArrayGeometry(2, 1e307), 0.3)).all()


def test_noise_model_from_db_and_floor():
    noise = NoiseModel.from_db(15.0)
    assert noise.snr_legit == pytest.approx(10.0 ** 1.5)
    assert noise.snr_attacker == pytest.approx(10.0 ** 1.5)
    assert noise.floor == pytest.approx(2.0 * 10.0 ** -1.5, abs=1e-15)
    mixed = NoiseModel.from_db(15.0, 30.0)
    assert mixed.floor == pytest.approx(10.0 ** -1.5 + 10.0 ** -3.0, abs=1e-15)


def test_noise_model_from_db_outside_float_range_raises_value_error():
    # past +3082.5 dB the SNR overflows; far below -3082 dB it underflows to 0, or to a
    # subnormal whose noise power 1/snr overflows; -inf gives 0 and nan gives nan
    cases = (
        (4000, None, "4000.0"), (15.0, 3083.0, "3083.0"), (np.float64(4000.0), None, "4000.0"),
        (-4000, None, "-4000.0"), (15.0, -math.inf, "-inf"), (math.nan, None, "nan"), (-3090.0, 15.0, "-3090.0"),
    )
    for legit_db, attacker_db, shown in cases:
        with pytest.raises(ValueError, match=rf"SNR of {shown} dB is out of a float's range"):
            NoiseModel.from_db(legit_db, attacker_db)
    assert NoiseModel.from_db(3082.0).snr_legit == 10.0 ** 308.2
    assert NoiseModel.from_db(math.inf) == NoiseModel.noiseless()
    # one link at -3082 dB is in range; both there overflow the floor (test_noise_model_floor_overflow_raises)
    assert math.isfinite(1.0 / NoiseModel.from_db(-3082.0, 15.0).snr_legit)


def test_noise_model_floor_overflow_raises():
    # each 1/snr is about 1.6e308 at -3082 dB, so their sum overflows
    with pytest.raises(ValueError, match=r"overflows for snr_legit=6\.3\d*e-309 and snr_attacker=6\.3\d*e-309"):
        NoiseModel.from_db(-3082.0, -3082.0)
    tiny = 1.0 / 1.7e308
    with pytest.raises(ValueError, match="1/snr_legit \\+ 1/snr_attacker overflows"):
        NoiseModel(tiny, tiny)
    assert NoiseModel(tiny, math.inf).floor == 1.0 / tiny
    assert math.isfinite(NoiseModel.from_db(-3082.0, 15.0).floor)


def test_noise_model_noiseless_floor_zero():
    noise = NoiseModel.noiseless()
    assert noise.floor == 0.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(0.0, 1.0)
    with pytest.raises(ValueError):
        NoiseModel(1.0, -3.0)
    with pytest.raises(ValueError):
        NoiseModel(math.nan, 1.0)


def test_precoders_wrap_phases():
    wrapped = (2.0 * math.pi - 0.5, 7.0 - 2.0 * math.pi)
    q = _precoders((1.0, 2.0), (-0.5, 7.0))
    assert np.array_equal(_bits(q), _bits(_precoders((1.0, 2.0), wrapped)))
    assert np.allclose(q, np.array([1.0, 2.0]) * np.exp(1j * np.array(wrapped)), rtol=0.0, atol=1e-15)
    att = AttackerConfig((0.1, 0.2), q)
    assert att.num_antennas == 2
    # -1e-20 % 2*pi rounds to 2*pi, which must wrap on to 0
    assert np.array_equal(_bits(_precoders((1.0,), (-1e-20,))), _bits((1.0 + 0.0j,)))


_finite_complex = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 33),
    st.floats(-1.5, 1.5),
    st.lists(st.tuples(st.floats(-math.pi, math.pi), _finite_complex), min_size=1, max_size=8),
)
def test_attacker_config_holds_precoders_bit_for_bit(m, theta, antennas):
    angles, q = zip(*antennas)
    att = AttackerConfig(angles, q)
    assert np.array_equal(_bits(att.precoders), _bits(q))
    geom = ArrayGeometry(m)
    assert mse_closed_form(geom, theta, att, NoiseModel.noiseless()).delta == mse_delta(geom, theta, angles, q)


def test_attacker_config_validation():
    with pytest.raises(ValueError):
        AttackerConfig((0.1,), (1.0, 2.0))
    with pytest.raises(ValueError):
        AttackerConfig((), ())
    with pytest.raises(ValueError, match="amplitudes must be >= 0"):
        _precoders((-1.0,), (0.0,))
    with pytest.raises(ValueError, match="amplitudes must be >= 0"):
        AttackerConfig.single(0.1, -1.0)
    with pytest.raises(ValueError):
        AttackerConfig((math.inf,), (1.0,))
    with pytest.raises(ValueError):
        AttackerConfig((0.1,), (complex(1.0, math.nan),))


def test_signal_block_validation():
    with pytest.raises(ValueError):
        SignalBlock(np.zeros(4))
    block = SignalBlock(np.zeros((4, 3)))
    assert block.num_elements == 4
    assert block.num_snapshots == 3


def test_noiseless_legitimate_block_is_pure_steering():
    geom = ArrayGeometry(6)
    block = synthesize_legitimate(geom, 0.3, NoiseModel.noiseless(), 5, 0)
    a = steering_vector(geom, 0.3)
    assert np.allclose(block.samples, a[:, None], atol=0.0)


def test_noiseless_attack_block_is_precoded_sum():
    geom = ArrayGeometry(6)
    att = AttackerConfig((0.1, -0.4), [0.7 + 0.2j, 0.3 - 0.2j])
    block = synthesize_attack(geom, att, NoiseModel.noiseless(), 3, 0)
    expected = sum(
        q * steering_vector(geom, ang) for ang, q in zip(att.angles, att.precoders)
    )
    assert np.allclose(block.samples, expected[:, None], atol=1e-15)


def test_synthesis_is_seed_deterministic():
    geom = ArrayGeometry(4)
    noise = NoiseModel.from_db(5.0)
    b1 = synthesize_legitimate(geom, 0.2, noise, 10, 42)
    b2 = synthesize_legitimate(geom, 0.2, noise, 10, 42)
    b3 = synthesize_legitimate(geom, 0.2, noise, 10, 43)
    assert np.array_equal(b1.samples, b2.samples)
    assert not np.array_equal(b1.samples, b3.samples)


def test_synthesis_accepts_generator_seed():
    geom = ArrayGeometry(4)
    noise = NoiseModel.from_db(5.0)
    b1 = synthesize_legitimate(geom, 0.2, noise, 10, derive_rng(9, 1))
    b2 = synthesize_legitimate(geom, 0.2, noise, 10, derive_rng(9, 1))
    b3 = synthesize_legitimate(geom, 0.2, noise, 10, derive_rng(9, 2))
    assert np.array_equal(b1.samples, b2.samples)
    assert not np.array_equal(b1.samples, b3.samples)


def test_synthesis_validation():
    geom = ArrayGeometry(4)
    noise = NoiseModel.noiseless()
    with pytest.raises(ValueError):
        synthesize_legitimate(geom, 0.2, noise, 0, 0)
    with pytest.raises(ValueError):
        synthesize_legitimate(geom, 2.0, noise, 2, 0)
    att = AttackerConfig.single(0.1)
    with pytest.raises(ValueError):
        synthesize_attack(geom, att, noise, 0, 0)


@pytest.mark.parametrize("m, n", [(2, 1), (2, 50), (16, 1), (16, 50)])
def test_block_draws_equal_the_oracle_stream(m, n):
    # the samples themselves, not their distribution: the same normals in the same
    # order, real parts before imaginary ones, and zeros of the same sign
    geom = ArrayGeometry(m)
    attacker = AttackerConfig((0.1, -0.4), [0.7 + 0.2j, 0.3 - 0.2j])
    for noise in (NoiseModel.from_db(5.0, -3.0), NoiseModel.noiseless()):
        for make_seed in (lambda: 7, lambda: derive_rng(7, m, n)):
            for library, oracle, source in (
                (synthesize_legitimate, oracles.synthesize_legitimate, 0.3),
                (synthesize_attack, oracles.synthesize_attack, attacker),
            ):
                got = library(geom, source, noise, n, make_seed()).samples
                want = oracle(geom, source, noise, n, make_seed()).samples
                assert np.array_equal(got, want), (library.__name__, noise)
                assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


@pytest.mark.parametrize("m, n", [(2, 1), (2, 3), (2, 2000), (16, 1), (16, 10), (16, 2000)])
def test_one_covariance_draw_equals_the_oracle_draw(m, n):
    # the matrix itself, bit for bit, with and without a stack of one
    geom = ArrayGeometry(m)
    attacker = AttackerConfig((0.1, -0.4), [0.7 + 0.2j, 0.3 - 0.2j])
    for wavefront in (steering_vector(geom, 0.3), attack_wavefront(geom, attacker)):
        for snr in (0.1, 2.0, math.inf):
            for make_seed in (lambda: 7, lambda: derive_rng(7, m, n)):
                want = oracles.synthesize_covariance(geom, wavefront, snr, n, make_seed())
                assert np.array_equal(synthesize_covariance(geom, wavefront, snr, n, make_seed()), want)
                stack = synthesize_covariance(geom, wavefront, snr, n, make_seed(), 1)
                assert stack.shape == (1, m, m) and np.array_equal(stack[0], want)


def test_strict_lower_indices_are_built_once_and_read_only():
    for m, k in [(1, 0), (2, 1), (16, 1), (16, 16), (5, 3)]:
        rows, cols = _strict_lower(m, k)
        want_rows, want_cols = np.tril_indices(m, -1, k)
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert _strict_lower(m, k)[0] is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            cols[...] = 0


def _covariance_statistics(covs):
    """Per-draw statistics of R[1,0], R[0,0], R[3,1] and R[3,3]: real parts,
    the imaginary parts of the off-diagonal two, and the squared distance of
    each from its sample mean (whose mean is the variance). Rows are
    independent draws, so each column's mean has a standard error of its
    sample std / sqrt(draws)."""
    entries = covs[:, [1, 0, 3, 3], [0, 0, 1, 3]]
    spread = np.abs(entries - entries.mean(axis=0)) ** 2
    return np.column_stack([entries.real, entries[:, [0, 2]].imag, spread])


def test_synthesized_covariance_matches_snapshot_covariance_in_distribution():
    # two-sample z-test on the mean of every statistic column, M = 4;
    # N <= M draws a rank-deficient (N = 2, 3) or empty (N = 1) Wishart factor.
    # Low SNRs, so the noise terms carry the variances.
    # 5 scenarios x 10 columns: a Sidak bound at family-wise alpha = 0.001.
    geom = ArrayGeometry(4)
    noise = NoiseModel.from_db(-10.0, -3.0)
    attacker = AttackerConfig((0.1, -0.4), [0.7 + 0.2j, 0.3 - 0.2j])
    legit = (steering_vector(geom, 0.3), noise.snr_legit, synthesize_legitimate, 0.3)
    attack = (attack_wavefront(geom, attacker), noise.snr_attacker, synthesize_attack, attacker)
    scenarios = [(legit, 1), (legit, 2), (legit, 3), (legit, 50), (attack, 3)]
    draws, tests = 3000, len(scenarios) * 10
    z_bound = NormalDist().inv_cdf(1.0 - (1.0 - (1.0 - 1e-3) ** (1.0 / tests)) / 2.0)
    for index, ((wavefront, snr, synthesize, source), n) in enumerate(scenarios):
        rng_cov, rng_block = derive_rng(17, index, 0), derive_rng(17, index, 1)
        # one stack of draws from the one generator
        drawn = _covariance_statistics(synthesize_covariance(geom, wavefront, snr, n, rng_cov, draws))
        direct = _covariance_statistics(
            np.array([sample_covariance(synthesize(geom, source, noise, n, rng_block)) for _ in range(draws)])
        )
        stderr = np.sqrt((drawn.var(axis=0, ddof=1) + direct.var(axis=0, ddof=1)) / draws)
        z = np.abs(drawn.mean(axis=0) - direct.mean(axis=0)) / stderr
        assert np.all(z <= z_bound), (index, z.round(2), z_bound)


def test_synthesized_covariance_noiseless_is_outer_product():
    geom = ArrayGeometry(5)
    attacker = AttackerConfig((0.1, -0.4), [0.7 + 0.2j, 0.3 - 0.2j])
    for w in (steering_vector(geom, 0.3), attack_wavefront(geom, attacker)):
        for n in (1, 2, 5, 50):
            cov = synthesize_covariance(geom, w, math.inf, n, 3)
            assert np.array_equal(cov, np.outer(w, w.conj()))


def test_synthesized_covariance_seeded_and_validated():
    geom = ArrayGeometry(4)
    w = steering_vector(geom, 0.2)
    first = synthesize_covariance(geom, w, 2.0, 10, derive_rng(9, 1))
    assert np.array_equal(first, synthesize_covariance(geom, w, 2.0, 10, derive_rng(9, 1)))
    assert not np.array_equal(first, synthesize_covariance(geom, w, 2.0, 10, derive_rng(9, 2)))
    assert np.allclose(first, first.conj().T, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="num_snapshots must be >= 1"):
        synthesize_covariance(geom, w, 2.0, 0, 0)
    with pytest.raises(ValueError, match=r"wavefront must have shape \(4,\)"):
        synthesize_covariance(geom, w[:3], 2.0, 10, 0)


def test_total_array_snr_convention():
    # expected total noise energy across the array is 1/snr, independent of M
    snr = 4.0
    for m in (2, 16):
        geom = ArrayGeometry(m)
        block = synthesize_legitimate(geom, 0.0, NoiseModel(snr, snr), 20000, 7)
        noise_part = block.samples - steering_vector(geom, 0.0)[:, None]
        energy = float(np.mean(np.sum(np.abs(noise_part) ** 2, axis=0)))
        assert energy == pytest.approx(1.0 / snr, rel=0.05)


def test_derive_rng_reproducible_and_stream_separated():
    r1 = derive_rng(5, 1, 2).standard_normal(4)
    r2 = derive_rng(5, 1, 2).standard_normal(4)
    r3 = derive_rng(5, 2, 1).standard_normal(4)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)
