import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel, steering_vector
from aoa_pla.attack import (
    aggregate_precoder,
    dirichlet_ratio,
    gram_matrix,
    monte_carlo_mse,
    mse_closed_form,
    mse_delta,
    mse_delta_single,
    mse_gradient_single,
    multi_optimum_condition,
    optimal_single_precoder,
    two_antenna_coefficients,
)


def brute_delta_single(geom, theta, theta_hat, beta, phi):
    """Direct squared distance between precoded and legitimate steering vectors."""
    q = beta * cmath.exp(1j * phi)
    diff = q * steering_vector(geom, theta_hat) - steering_vector(geom, theta)
    return float(np.sum(np.abs(diff) ** 2))


def brute_delta_multi(geom, theta, attacker):
    stacked = np.column_stack([steering_vector(geom, a) for a in attacker.angles])
    diff = stacked @ attacker.precoders - steering_vector(geom, theta)
    return float(np.sum(np.abs(diff) ** 2))


def test_dirichlet_ratio_against_direct_sum():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = int(rng.integers(2, 33))
        geom = ArrayGeometry(m)
        alpha = float(rng.uniform(-2.0, 2.0))
        direct = complex(np.sum(np.exp(1j * np.arange(m) * geom.wavenumber_scale * alpha)))
        ratio = dirichlet_ratio(geom, alpha)
        assert abs(ratio) == pytest.approx(abs(direct), abs=1e-9)


def test_dirichlet_ratio_limits():
    geom = ArrayGeometry(16)
    assert dirichlet_ratio(geom, 0.0) == 16.0
    # grating-lobe alias kappa*alpha = 2*pi: ratio limit is -M; the
    # (M-1)-phase factor restores the full positive sum
    ratio = dirichlet_ratio(geom, 2.0)
    assert ratio == pytest.approx(-16.0, abs=1e-9)
    phase = cmath.exp(1j * 0.5 * (16 - 1) * geom.wavenumber_scale * 2.0)
    direct = complex(np.sum(np.exp(1j * np.arange(16) * geom.wavenumber_scale * 2.0)))
    assert ratio * phase == pytest.approx(direct, abs=1e-9)


def test_dirichlet_ratio_accurate_next_to_grating_lobe():
    # kappa*alpha/2 a hair off k*pi: sin(M*x) and sin(x) are both tiny,
    # so the ratio must come from a reduced argument to keep its precision
    for m, spacing in ((3, 1.0), (16, 1.5), (20, 2.0)):
        geom = ArrayGeometry(m, spacing)
        kappa = geom.wavenumber_scale
        for k in (1, 2):
            for offset in (3e-12, 1e-10, -1e-9):
                alpha = k / spacing + offset
                if abs(alpha) > 2.0:
                    continue
                phase = cmath.exp(1j * 0.5 * (m - 1) * kappa * alpha)
                direct = complex(np.sum(np.exp(1j * np.arange(m) * kappa * alpha)))
                assert abs(dirichlet_ratio(geom, alpha) * phase - direct) <= 1e-12 * m


def test_delta_single_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(500):
        m = int(rng.integers(2, 33))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        theta_hat = float(rng.uniform(-math.pi / 2, math.pi / 2))
        beta = float(rng.uniform(0.0, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        got = mse_delta_single(geom, theta, theta_hat, beta, phi)
        want = brute_delta_single(geom, theta, theta_hat, beta, phi)
        assert got == pytest.approx(want, abs=1e-9)


def test_delta_single_aligned_branch():
    geom = ArrayGeometry(8)
    assert mse_delta_single(geom, 0.3, 0.3, 1.0, 0.0) == 0.0
    # unit precoder but wrong phase still costs M * |1 - e^{j phi}|^2
    got = mse_delta_single(geom, 0.3, 0.3, 1.0, 0.5)
    want = 8 * abs(1.0 - cmath.exp(0.5j)) ** 2
    assert got == pytest.approx(want, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(200):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        theta_hat = float(rng.uniform(-1.4, 1.4))
        beta = float(rng.uniform(0.1, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        db, dp = mse_gradient_single(geom, theta, theta_hat, beta, phi)
        fd_b = (
            mse_delta_single(geom, theta, theta_hat, beta + h, phi)
            - mse_delta_single(geom, theta, theta_hat, beta - h, phi)
        ) / (2 * h)
        fd_p = (
            mse_delta_single(geom, theta, theta_hat, beta, phi + h)
            - mse_delta_single(geom, theta, theta_hat, beta, phi - h)
        ) / (2 * h)
        assert db == pytest.approx(fd_b, rel=1e-6, abs=1e-6)
        assert dp == pytest.approx(fd_p, rel=1e-6, abs=1e-6)


def test_optimal_precoder_is_stationary_and_global():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        theta_hat = float(rng.uniform(-1.4, 1.4))
        opt = optimal_single_precoder(geom, theta, theta_hat)
        assert opt.beta_star >= 0.0
        db, dp = mse_gradient_single(geom, theta, theta_hat, opt.beta_star, opt.phi_star)
        assert math.hypot(db, dp) <= 1e-9
        # no random probe may beat the claimed optimum
        for _ in range(20):
            beta = float(rng.uniform(0.0, 2.0))
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            assert mse_delta_single(geom, theta, theta_hat, beta, phi) >= opt.zeta_at_opt - 1e-9


def test_optimal_precoder_aligned_degenerates_to_unity():
    geom = ArrayGeometry(16)
    opt = optimal_single_precoder(geom, 0.4, 0.4)
    assert opt.beta_star == pytest.approx(1.0, abs=1e-15)
    assert opt.phi_star == pytest.approx(0.0, abs=1e-15)
    assert opt.zeta_at_opt == pytest.approx(0.0, abs=1e-12)
    noise = NoiseModel.from_db(15.0)
    with_noise = optimal_single_precoder(geom, 0.4, 0.4, noise)
    assert with_noise.zeta_at_opt == pytest.approx(noise.floor, abs=1e-12)


def test_hessian_det_formula():
    geom = ArrayGeometry(16)
    opt = optimal_single_precoder(geom, 0.4, 0.2)
    ratio = dirichlet_ratio(geom, math.sin(0.4) - math.sin(0.2))
    assert opt.hessian_det == pytest.approx(4.0 * ratio * ratio, rel=1e-12)


def test_gram_matrix_matches_inner_products():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 25))
        geom = ArrayGeometry(m)
        angles = rng.uniform(-math.pi, math.pi, size=int(rng.integers(1, 6)))
        g = gram_matrix(geom, angles)
        stacked = np.column_stack([steering_vector(geom, a) for a in angles])
        direct = stacked.conj().T @ stacked
        assert np.max(np.abs(g - direct)) <= 1e-10
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.diag(g).real == m)


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        gram_matrix(ArrayGeometry(4), [])


def test_two_antenna_coefficients_match_inner_products():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 25))
        geom = ArrayGeometry(m)
        theta, th0, th1 = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
        coef = two_antenna_coefficients(geom, theta, th0, th1)
        a = steering_vector(geom, theta)
        a0 = steering_vector(geom, th0)
        a1 = steering_vector(geom, th1)
        assert abs(coef.b0 - np.vdot(a, a0)) <= 1e-10
        assert abs(coef.b1 - np.vdot(a, a1)) <= 1e-10
        assert abs(coef.d1 - np.vdot(a0, a1)) <= 1e-10
        assert coef.c0 == coef.b0.conjugate()
        assert coef.c1 == coef.b1.conjugate()
        assert coef.d0 == coef.d1.conjugate()


def test_closed_form_matches_brute_force_multi():
    rng = np.random.default_rng(6)
    noise = NoiseModel.from_db(10.0, 20.0)
    for _ in range(200):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(m)
        num = int(rng.integers(1, 5))
        att = AttackerConfig(
            tuple(rng.uniform(-math.pi, math.pi, size=num)),
            tuple(rng.uniform(0.0, 1.5, size=num)),
            tuple(rng.uniform(0.0, 2.0 * math.pi, size=num)),
        )
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        got = mse_closed_form(geom, theta, att, noise)
        want = brute_delta_multi(geom, theta, att)
        assert got.delta == pytest.approx(want, abs=1e-9)
        assert got.zeta == pytest.approx(want + noise.floor, abs=1e-9)
        assert got.noise_floor == noise.floor
        assert got.delta >= 0.0


@st.composite
def _attack_scenarios(draw):
    """Array, legitimate angle and attacker; some antennas sit on exact sine aliases."""
    geom = ArrayGeometry(draw(st.integers(2, 24)), draw(st.floats(0.1, 2.0)))
    theta = draw(st.floats(-math.pi / 2, math.pi / 2))
    angles = []
    for _ in range(draw(st.integers(1, 32))):
        # k = 0 is the angle itself (or its pi - theta mirror); |k| >= 1 a
        # grating-lobe alias, which needs spacing >= |k| / 2
        k = draw(st.one_of(st.none(), st.integers(-3, 3)))
        alias = None if k is None else math.sin(theta) + k / geom.spacing
        if alias is not None and abs(alias) <= 1.0:
            angle = math.asin(alias)
            angles.append(math.pi - angle if draw(st.booleans()) else angle)
        else:
            angles.append(draw(st.floats(-math.pi, math.pi)))
    betas = [draw(st.floats(0.0, 2.0)) for _ in angles]
    phis = [draw(st.floats(0.0, 2.0 * math.pi)) for _ in angles]
    return geom, theta, AttackerConfig(tuple(angles), tuple(betas), tuple(phis))


@settings(max_examples=300, deadline=None)
@given(_attack_scenarios())
def test_direct_form_matches_gram_expansion(scenario):
    geom, theta, attacker = scenario
    m = geom.num_elements
    q = attacker.precoders
    a = steering_vector(geom, theta)
    stacked = np.column_stack([steering_vector(geom, ang) for ang in attacker.angles])
    g = gram_matrix(geom, attacker.angles)
    expanded = m - 2.0 * np.vdot(a, stacked @ q).real + np.vdot(q, g @ q).real
    direct = mse_delta(geom, theta, attacker.angles, q)
    assert direct >= 0.0
    assert abs(direct - expanded) <= 1e-9 * m * (1.0 + np.sum(np.abs(q))) ** 2


def test_mse_delta_broadcasts_over_sweep_axes():
    rng = np.random.default_rng(8)
    geom = ArrayGeometry(9, 0.7)
    thetas = rng.uniform(-1.5, 1.5, size=(4, 1))
    angles = rng.uniform(-math.pi, math.pi, size=(4, 5, 3))
    precoders = rng.uniform(0.0, 1.0, size=(5, 3)) * np.exp(1j * rng.uniform(0.0, 6.0, size=(5, 3)))
    got = mse_delta(geom, thetas, angles, precoders)
    assert got.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            att = AttackerConfig.from_precoders(angles[i, j], precoders[j])
            want = brute_delta_multi(geom, float(thetas[i, 0]), att)
            assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_closed_form_single_reduction():
    geom = ArrayGeometry(12)
    noise = NoiseModel.noiseless()
    att = AttackerConfig.single(0.2, 0.7, 1.1)
    got = mse_closed_form(geom, 0.5, att, noise)
    want = mse_delta_single(geom, 0.5, 0.2, 0.7, 1.1)
    assert got.zeta == pytest.approx(want, abs=1e-10)
    assert got.alpha == pytest.approx(math.sin(0.5) - math.sin(0.2), abs=1e-15)
    multi = mse_closed_form(geom, 0.5, AttackerConfig((0.2, 0.3), (0.5, 0.5), (0.0, 0.0)), noise)
    assert multi.alpha is None


def test_aggregate_precoder_and_optimum_condition():
    att = AttackerConfig((0.4, math.pi - 0.4), (0.5, 0.5), (0.0, 0.0))
    agg = aggregate_precoder(att)
    assert agg.u == pytest.approx(1.0, abs=1e-15)
    assert agg.v == pytest.approx(0.0, abs=1e-15)
    check = multi_optimum_condition(att, 0.4)
    assert check.satisfied and check.angles_aligned and check.precoder_sum_ok

    off_angle = multi_optimum_condition(AttackerConfig.single(0.3), 0.4)
    assert not off_angle.satisfied and not off_angle.angles_aligned
    assert "angle condition" in off_angle.detail

    off_sum = multi_optimum_condition(AttackerConfig.single(0.4, beta=0.5), 0.4)
    assert not off_sum.satisfied and off_sum.angles_aligned and not off_sum.precoder_sum_ok
    assert "precoder condition" in off_sum.detail


def test_optimum_condition_attains_noise_floor():
    geom = ArrayGeometry(16)
    noise = NoiseModel.from_db(15.0)
    att = AttackerConfig((0.4, math.pi - 0.4, 0.4), (0.25, 0.25, 0.5), (0.0, 0.0, 0.0))
    assert multi_optimum_condition(att, 0.4).satisfied
    assert mse_closed_form(geom, 0.4, att, noise).zeta == pytest.approx(noise.floor, abs=1e-12)


def test_monte_carlo_noiseless_equals_closed_form():
    geom = ArrayGeometry(8)
    att = AttackerConfig.single(0.1, 0.6, 0.3)
    noise = NoiseModel.noiseless()
    mean, stderr = monte_carlo_mse(geom, 0.4, att, noise, 50, 0)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    assert mean == pytest.approx(mse_closed_form(geom, 0.4, att, noise).zeta, abs=1e-12)


def test_monte_carlo_matches_theory_within_error():
    geom = ArrayGeometry(16)
    att = AttackerConfig((0.4, 0.4), (0.5, 0.5), (0.0, 0.0))
    noise = NoiseModel.from_db(15.0)
    mean, stderr = monte_carlo_mse(geom, 0.4, att, noise, 20000, 1)
    theory = mse_closed_form(geom, 0.4, att, noise).zeta
    assert abs(mean - theory) <= 4.0 * stderr


def test_monte_carlo_deterministic_and_validated():
    geom = ArrayGeometry(4)
    att = AttackerConfig.single(0.1)
    noise = NoiseModel.from_db(5.0)
    assert monte_carlo_mse(geom, 0.4, att, noise, 100, 7) == monte_carlo_mse(
        geom, 0.4, att, noise, 100, 7
    )
    with pytest.raises(ValueError):
        monte_carlo_mse(geom, 0.4, att, noise, 0, 7)
    mean, stderr = monte_carlo_mse(geom, 0.4, att, noise, 1, 7)
    assert stderr == 0.0


def test_best_case_zeta_independent_of_num_antennas():
    geom = ArrayGeometry(10)
    noise = NoiseModel.from_db(15.0)
    values = []
    for num in (1, 2, 5, 12):
        att = AttackerConfig((0.4,) * num, (1.0 / num,) * num, (0.0,) * num)
        values.append(mse_closed_form(geom, 0.4, att, noise).zeta)
    assert max(values) - min(values) <= 1e-12
