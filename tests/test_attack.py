import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoa_pla.arrays import ArrayGeometry, AttackerConfig, NoiseModel, _precoders, steering_vector
from aoa_pla import attack, experiments
from aoa_pla.attack import (
    monte_carlo_mse,
    mse_closed_form,
    mse_delta,
    optimal_precoders,
)
from aoa_pla.experiments import ExperimentConfig
import oracles
from oracles import dirichlet_ratio, mse_delta_single, mse_gradient_single, optimal_single_precoder

EPS = np.finfo(float).eps


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
    # at L = 1 the determinant is 4 M^2 |q*|^2, which `attack-opt` reports as |q*|^2
    q = optimal_precoders(geom, 0.4, (0.2,)).precoders
    assert opt.hessian_det == pytest.approx(4.0 * 16**2 * abs(q[0]) ** 2, rel=1e-12)


def test_gram_matrix_matches_inner_products():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 25))
        geom = ArrayGeometry(m)
        angles = rng.uniform(-math.pi, math.pi, size=int(rng.integers(1, 6)))
        g = oracles.gram_matrix(geom, angles)
        stacked = np.column_stack([steering_vector(geom, a) for a in angles])
        direct = stacked.conj().T @ stacked
        assert np.max(np.abs(g - direct)) <= 1e-10
        assert np.array_equal(g, g.conj().T)
        assert np.all(np.diag(g).real == m)


def test_gram_matrix_is_the_closed_form_to_rounding():
    # attack.gram_matrix is the product A^H A; the oracle is the paper's Dirichlet form
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 25))
        geom = ArrayGeometry(m)
        angles = rng.uniform(-math.pi, math.pi, size=int(rng.integers(1, 6)))
        assert np.max(np.abs(attack.gram_matrix(geom, angles) - oracles.gram_matrix(geom, angles))) <= 1e-10


def test_gram_matrix_validation():
    for gram in (attack.gram_matrix, oracles.gram_matrix):
        with pytest.raises(ValueError):
            gram(ArrayGeometry(4), [])


def test_two_antenna_coefficients_match_inner_products():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(2, 25))
        geom = ArrayGeometry(m)
        theta, th0, th1 = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
        # b0, b1, d1 and their conjugates c0, c1, d0 are Gram entries
        g = oracles.gram_matrix(geom, (theta, th0, th1))
        b0, b1, d1 = g[0, 1], g[0, 2], g[1, 2]
        c0, c1, d0 = g[1, 0], g[2, 0], g[2, 1]
        a = steering_vector(geom, theta)
        a0 = steering_vector(geom, th0)
        a1 = steering_vector(geom, th1)
        assert abs(b0 - np.vdot(a, a0)) <= 1e-10
        assert abs(b1 - np.vdot(a, a1)) <= 1e-10
        assert abs(d1 - np.vdot(a0, a1)) <= 1e-10
        assert c0 == b0.conjugate()
        assert c1 == b1.conjugate()
        assert d0 == d1.conjugate()


def test_closed_form_matches_brute_force_multi():
    rng = np.random.default_rng(6)
    noise = NoiseModel.from_db(10.0, 20.0)
    for _ in range(200):
        m = int(rng.integers(2, 17))
        geom = ArrayGeometry(m)
        num = int(rng.integers(1, 5))
        att = AttackerConfig(
            tuple(rng.uniform(-math.pi, math.pi, size=num)),
            _precoders(rng.uniform(0.0, 1.5, size=num), rng.uniform(0.0, 2.0 * math.pi, size=num)),
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
    return geom, theta, AttackerConfig(tuple(angles), _precoders(betas, phis))


@settings(max_examples=300, deadline=None)
@given(_attack_scenarios())
def test_direct_form_matches_gram_expansion(scenario):
    geom, theta, attacker = scenario
    m = geom.num_elements
    q = attacker.precoders
    a = steering_vector(geom, theta)
    stacked = np.column_stack([steering_vector(geom, ang) for ang in attacker.angles])
    g = oracles.gram_matrix(geom, attacker.angles)
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
            att = AttackerConfig(angles[i, j], precoders[j])
            want = brute_delta_multi(geom, float(thetas[i, 0]), att)
            assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def _random_precoders(rng, shape):
    return rng.uniform(0.0, 1.0, size=shape) * np.exp(1j * rng.uniform(0.0, 6.0, size=shape))


def test_mse_delta_broadcasts_in_the_runners_layouts():
    rng = np.random.default_rng(11)
    geom = ArrayGeometry(16)
    # fig5: one 0-d angle shared by rows of precoders
    precoders = _random_precoders(rng, (4, 12))
    got = mse_delta(geom, 0.4, 0.4, precoders)
    assert got.shape == (4,)
    for i in range(4):
        want = brute_delta_multi(geom, 0.4, AttackerConfig((0.4,) * 12, precoders[i]))
        assert got[i] == pytest.approx(want, rel=1e-12)
    # fig3d: one (L,) attacker shared by an (S0, S1, L) precoder grid
    angles = (0.39, 0.41)
    precoders = _random_precoders(rng, (3, 4, 2))
    got = mse_delta(geom, 0.4, angles, precoders)
    assert got.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        assert got[idx] == pytest.approx(brute_delta_multi(geom, 0.4, AttackerConfig(angles, precoders[idx])), rel=1e-12)
    # fig6: (S, 1, 1) angles against (1, L) precoders and a (2,) theta
    grid = rng.uniform(-math.pi, math.pi, size=7)
    thetas = np.array([0.2, 0.4])
    precoders = _random_precoders(rng, (1, 3))
    got = mse_delta(geom, thetas, grid[:, None, None], precoders)
    assert got.shape == (7, 2)
    for i, j in np.ndindex(7, 2):
        want = brute_delta_multi(geom, thetas[j], AttackerConfig((grid[i],) * 3, precoders[0]))
        assert got[i, j] == pytest.approx(want, rel=1e-12)


def test_closed_form_single_reduction():
    geom = ArrayGeometry(12)
    noise = NoiseModel.noiseless()
    att = AttackerConfig.single(0.2, 0.7, 1.1)
    got = mse_closed_form(geom, 0.5, att, noise)
    want = mse_delta_single(geom, 0.5, 0.2, 0.7, 1.1)
    assert got.zeta == pytest.approx(want, abs=1e-10)
    assert got.alpha == pytest.approx(math.sin(0.5) - math.sin(0.2), abs=1e-15)
    multi = mse_closed_form(geom, 0.5, AttackerConfig((0.2, 0.3), (0.5, 0.5)), noise)
    assert multi.alpha is None


def test_aggregate_precoder_and_optimum_condition():
    # a sine alias pair has one steering vector: rank 1, and q* splits the unit precoder between them
    geom = ArrayGeometry(16)
    opt = optimal_precoders(geom, 0.4, (0.4, math.pi - 0.4))
    assert opt.rank == 1
    assert opt.delta <= 1e-20
    assert np.sum(opt.precoders) == pytest.approx(1.0, abs=1e-15)
    assert opt.precoders[0] == pytest.approx(opt.precoders[1], abs=1e-15)

    off_angle = optimal_precoders(geom, 0.4, (0.3,))
    assert off_angle.rank == 1 and off_angle.delta > 1.0

    # an aligned antenna with any precoder but 1 misses the optimum, delta* = 0
    aligned = optimal_precoders(geom, 0.4, (0.4,))
    assert aligned.precoders[0] == pytest.approx(1.0, abs=1e-15)
    assert mse_closed_form(geom, 0.4, AttackerConfig.single(0.4, beta=0.5), NoiseModel.noiseless()).delta == 4.0


def test_optimum_condition_attains_noise_floor():
    geom = ArrayGeometry(16)
    noise = NoiseModel.from_db(15.0)
    att = AttackerConfig((0.4, math.pi - 0.4, 0.4), (0.25, 0.25, 0.5))
    opt = optimal_precoders(geom, 0.4, att.angles)
    assert opt.rank == 1 and opt.delta <= 1e-20
    assert np.sum(opt.precoders) == pytest.approx(1.0, abs=1e-15)
    assert mse_closed_form(geom, 0.4, att, noise).zeta == pytest.approx(noise.floor, abs=1e-12)


def test_non_aliased_attacker_reaches_zero_delta():
    # four steering vectors at distinct sines span C^4, so least squares solves A q = a
    geom = ArrayGeometry(4)
    angles = (0.1, 0.7, -0.5, 1.2)
    opt = optimal_precoders(geom, 0.4, angles)
    assert opt.rank == 4
    assert opt.delta <= 1e-20
    a_matrix = steering_vector(geom, angles).T
    q = np.linalg.lstsq(a_matrix, steering_vector(geom, 0.4), rcond=None)[0]
    assert np.max(np.abs(opt.precoders - q)) <= 1e-12
    att = AttackerConfig(angles, opt.precoders)
    assert mse_delta(geom, 0.4, att.angles, att.precoders) <= 1e-20


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 32),
    st.floats(0.1, 2.0),
    st.floats(-math.pi / 2, math.pi / 2),
    st.one_of(st.floats(-math.pi, math.pi), st.integers(-3, 3)),
    st.floats(-10.0, 40.0),
)
def test_optimal_precoders_single_antenna_equals_closed_form(m, spacing, theta, theta_hat, snr_db):
    """At L = 1, q* is the closed form's beta* e^{j phi*} and delta* + floor its zeta*.

    An integer `theta_hat` k puts the antenna on the sine alias sin(theta) + k / spacing,
    when that exists. Each steering-vector phase kappa*m*sin is rounded to
    within about kappa*M*eps, and the closed form's phase -(M-1)*kappa*alpha/2
    likewise, so q* (a mean of M unit terms) agrees to a few kappa*M*eps and
    delta (a sum of M terms of size up to 4) to a few kappa*M^2*eps.
    """
    geom = ArrayGeometry(m, spacing)
    if isinstance(theta_hat, int):
        alias = math.sin(theta) + theta_hat / spacing
        if abs(alias) > 1.0:
            return
        theta_hat = math.asin(alias)
    noise = NoiseModel.from_db(snr_db)
    opt = optimal_precoders(geom, theta, (theta_hat,))
    want = optimal_single_precoder(geom, theta, theta_hat, noise)
    kappa = geom.wavenumber_scale
    assert opt.rank == 1
    assert abs(opt.precoders[0] - want.beta_star * cmath.exp(1j * want.phi_star)) <= 16 * (1 + kappa) * m * EPS
    zeta = opt.delta + noise.floor
    assert abs(zeta - want.zeta_at_opt) <= 16 * (1 + kappa) * m * m * EPS + 4 * EPS * noise.floor


@st.composite
def _near_coincident_attackers(draw):
    """Array, legitimate angle and attacker angles, most a hair from a shared base angle.

    Offsets of 10**-16 to 10**-2 rad (or none, or a sine alias of the base)
    make the Gram matrix G = A^H A as ill-conditioned as a float allows.
    """
    geom = ArrayGeometry(draw(st.integers(2, 24)), draw(st.floats(0.1, 2.0)))
    base = draw(st.floats(-math.pi / 2, math.pi / 2))
    theta = draw(st.one_of(st.just(base), st.floats(-math.pi / 2, math.pi / 2)))
    angles = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["near", "near", "alias", "anywhere"]))
        if kind == "near":
            offset = draw(st.sampled_from([-1.0, 0.0, 1.0])) * 10.0 ** -draw(st.floats(2.0, 16.0))
            angles.append(base + offset)
        elif kind == "alias":
            angles.append(math.pi - base)
        else:
            angles.append(draw(st.floats(-math.pi, math.pi)))
    return geom, theta, tuple(angles)


@settings(max_examples=300, deadline=None)
@given(_near_coincident_attackers())
def test_optimal_precoders_solve_the_normal_equations(scenario):
    """The gradient A^H (a - A q*) vanishes and q* solves G q = A^H a, to rounding.

    q* is the exact least-squares solution of a matrix B with ||A - B|| at
    most the SVD's backward error, a small multiple (taken as 8) of
    M L eps ||A|| for Householder-based SVD, plus the dropped singular
    values, below max(M, L) eps ||A||. So ||A^H (a - A q*)|| <= ||A - B||
    (||a|| + 2 ||A|| ||q*||), with ||a|| = sqrt(M) and ||A|| <= sqrt(M L).
    The closed-form G differs from A^H A by the phase rounding of a few
    kappa M eps per entry of A, which adds a few (1 + kappa) M^2 L eps ||q*||.
    """
    geom, theta, angles = scenario
    m, l = geom.num_elements, len(angles)
    opt = optimal_precoders(geom, theta, angles)
    q = opt.precoders
    qnorm = float(np.linalg.norm(q))
    a = steering_vector(geom, theta)
    a_matrix = steering_vector(geom, angles).T
    grad = a_matrix.conj().T @ (a - a_matrix @ q)
    grad_tol = (8 * m * l + max(m, l)) * EPS * math.sqrt(m * l) * (math.sqrt(m) + 2 * math.sqrt(m * l) * qnorm)
    assert np.linalg.norm(grad) <= grad_tol
    normal = oracles.gram_matrix(geom, angles) @ q - a_matrix.conj().T @ a
    assert np.linalg.norm(normal) <= grad_tol + 16 * (1 + geom.wavenumber_scale) * m * m * l * EPS * qnorm
    assert 1 <= opt.rank <= min(m, l)
    # no worse than q = 0, up to the rounding of a residual sum with |q*| terms
    assert 0.0 <= opt.delta <= m + grad_tol


def test_optimal_precoders_rank_of_spanning_and_repeated_antennas():
    geom = ArrayGeometry(6)
    spread = np.linspace(-1.2, 1.2, 9)
    for l in range(1, 10):
        opt = optimal_precoders(geom, 0.4, spread[:l])
        assert opt.rank == min(l, 6)
        assert (opt.delta <= 1e-20) == (l >= 6)
        assert opt.rank == np.linalg.matrix_rank(steering_vector(geom, spread[:l]).T)
    repeated = optimal_precoders(geom, 0.4, (0.1, 0.1, 0.1))
    assert repeated.rank == 1
    assert np.allclose(repeated.precoders, repeated.precoders[0], rtol=0, atol=1e-15)


def test_optimal_precoders_broadcast_over_sweep_axes():
    rng = np.random.default_rng(9)
    geom = ArrayGeometry(5, 0.8)
    thetas = rng.uniform(-1.5, 1.5, size=(4, 1))
    angles = rng.uniform(-math.pi, math.pi, size=(4, 3, 2))
    opt = optimal_precoders(geom, thetas, angles)
    assert opt.precoders.shape == (4, 3, 2) and opt.delta.shape == (4, 3) and opt.rank.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            one = optimal_precoders(geom, float(thetas[i, 0]), angles[i, j])
            assert np.allclose(opt.precoders[i, j], one.precoders, rtol=1e-12, atol=1e-12)
            assert opt.delta[i, j] == pytest.approx(float(one.delta), rel=1e-12, abs=1e-12)
            assert opt.rank[i, j] == one.rank


def _mc(geom, theta, attacker, noise, trials, seed):
    """`monte_carlo_mse` of one attacker configuration."""
    return monte_carlo_mse(geom, theta, attacker.angles, attacker.precoders, noise, trials, seed)


def test_monte_carlo_noiseless_equals_closed_form():
    geom = ArrayGeometry(8)
    att = AttackerConfig.single(0.1, 0.6, 0.3)
    noise = NoiseModel.noiseless()
    mean, stderr = _mc(geom, 0.4, att, noise, 50, 0)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    assert mean == pytest.approx(mse_closed_form(geom, 0.4, att, noise).zeta, abs=1e-12)


def test_monte_carlo_matches_theory_within_error():
    geom = ArrayGeometry(16)
    att = AttackerConfig((0.4, 0.4), (0.5, 0.5))
    noise = NoiseModel.from_db(15.0)
    mean, stderr = _mc(geom, 0.4, att, noise, 20000, 1)
    theory = mse_closed_form(geom, 0.4, att, noise).zeta
    assert abs(mean - theory) <= 4.0 * stderr


def test_monte_carlo_deterministic_and_validated():
    geom = ArrayGeometry(4)
    att = AttackerConfig.single(0.1)
    noise = NoiseModel.from_db(5.0)
    assert _mc(geom, 0.4, att, noise, 100, 7) == _mc(geom, 0.4, att, noise, 100, 7)
    # one trial has no standard error
    for trials in (0, 1):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            _mc(geom, 0.4, att, noise, trials, 7)
    for trials in (2.5, 3.0, "10"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            _mc(geom, 0.4, att, noise, trials, 7)
    assert _mc(geom, 0.4, att, noise, np.int64(100), 7) == _mc(geom, 0.4, att, noise, 100, 7)


# legitimate / attacker link SNRs (linear); math.inf is a noiseless link
ASYMMETRIC_SNRS = [
    pytest.param(10.0**0.5, 10.0**2.5, id="legit5dB-attacker25dB"),
    pytest.param(10.0**2.5, 10.0**0.5, id="legit25dB-attacker5dB"),
    pytest.param(math.inf, 10.0, id="legit-noiseless-attacker10dB"),
    pytest.param(10.0, math.inf, id="legit10dB-attacker-noiseless"),
]
MISALIGNED = AttackerConfig((0.4, 0.45), _precoders((0.5, 0.5), (0.0, 0.3)))


@pytest.mark.parametrize("snr_legit, snr_attacker", ASYMMETRIC_SNRS)
def test_monte_carlo_mean_matches_theory_at_asymmetric_snrs(snr_legit, snr_attacker):
    geom = ArrayGeometry(16)
    noise = NoiseModel(snr_legit, snr_attacker)
    mean, stderr = _mc(geom, 0.4, MISALIGNED, noise, 20000, 3)
    theory = mse_closed_form(geom, 0.4, MISALIGNED, noise).zeta
    assert abs(mean - theory) <= 4.0 * stderr


@pytest.mark.parametrize("snr_legit, snr_attacker", ASYMMETRIC_SNRS)
def test_monte_carlo_spread_matches_model(snr_legit, snr_attacker):
    """stderr * sqrt(trials) estimates sqrt(M s^4 + 2 s^2 ||d||^2), s^2 = floor / M.

    Each trial is (s^2 / 2) times a noncentral chi-square with k = 2M degrees
    of freedom and noncentrality lam = 2 ||d||^2 / s^2, whose excess kurtosis
    is g2 = 12 (k + 4 lam) / (k + 2 lam)^2. The sample variance of n trials
    then has relative variance 2 / (n - 1) + g2 / n, so the sample standard
    deviation has relative standard deviation about half its square root; the
    band is four of those.
    """
    geom = ArrayGeometry(16)
    m = geom.num_elements
    trials = 20000
    noise = NoiseModel(snr_legit, snr_attacker)
    _, stderr = _mc(geom, 0.4, MISALIGNED, noise, trials, 5)
    sigma2 = noise.floor / m
    delta = mse_closed_form(geom, 0.4, MISALIGNED, noise).delta
    model_std = math.sqrt(m * sigma2**2 + 2.0 * sigma2 * delta)
    k, lam = 2 * m, 2.0 * delta / sigma2
    excess_kurtosis = 12.0 * (k + 4.0 * lam) / (k + 2.0 * lam) ** 2
    band = 4.0 * 0.5 * math.sqrt(2.0 / (trials - 1) + excess_kurtosis / trials)
    assert abs(stderr * math.sqrt(trials) / model_std - 1.0) <= band


def test_monte_carlo_draws_the_noise_difference_once():
    """One (trials, M, 2) standard-normal block, scaled to variance floor / M."""
    geom = ArrayGeometry(6)
    att = AttackerConfig.single(0.2, 0.7, 1.1)
    noise = NoiseModel.from_db(3.0, 12.0)
    trials = 500
    rng = np.random.default_rng(11)
    parts = rng.standard_normal((trials, geom.num_elements, 2))
    scale = math.sqrt(noise.floor / geom.num_elements / 2.0)
    diff0 = steering_vector(geom, 0.4) - att.precoders[0] * steering_vector(geom, 0.2)
    vals = [float(np.sum(np.abs(diff0 + scale * (p[:, 0] + 1j * p[:, 1])) ** 2)) for p in parts]
    mean, stderr = _mc(geom, 0.4, att, noise, trials, 11)
    assert mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert stderr == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(trials), rel=1e-9)


def _assert_matches_oracle(got, want):
    """(mean, stderr) within the oracle's rounding bounds, which are themselves tight."""
    mean, stderr = got
    assert np.shape(mean) == np.shape(stderr) == want.mean.shape
    assert np.all(np.abs(mean - want.mean) <= want.mean_tol), np.max(np.abs(mean - want.mean) / want.mean_tol)
    assert np.all(np.abs(stderr - want.stderr) <= want.stderr_tol), np.max(
        np.abs(stderr - want.stderr) / want.stderr_tol
    )
    # the bounds leave no room for a wrong trial count, shift, chunk sum or scale
    assert np.all(want.mean_tol <= 1e-9 * want.mean)
    assert np.all(want.stderr_tol <= 1e-9 * want.stderr)


# a 2 x 3 sweep of attackers: row 0 has one antenna (padded with a zero precoder), row 1 two
SWEEP_ANGLES = np.array([[[0.2, 0.0], [0.4, 0.0], [-0.3, 0.0]], [[0.4, 0.45], [0.1, 0.7], [0.39, 0.41]]])
SWEEP_PRECODERS = np.array([
    [[0.9, 0.0], [1.0, 0.0], [0.5j, 0.0]],
    [[0.5, 0.5 * cmath.exp(0.3j)], [0.3, 0.2j], [0.5, 0.5]],
])


@pytest.mark.parametrize(
    "noise",
    [pytest.param(NoiseModel.from_db(15.0), id="symmetric"), pytest.param(NoiseModel(math.inf, 10.0), id="legit-noiseless")],
)
def test_monte_carlo_chunked_draw_equals_one_block(noise, monkeypatch):
    """Chunks of `_DRAW_CHUNK` trials, summed about the draw's expectation, give one block's mean and std(ddof=1).

    Not bit for bit: the moment form (each point's statistics from the
    draw's mean and co-moment) rounds differently from the direct
    one-block form, so they agree to the oracle's rounding bound.
    """
    for chunk in (1, 7, 1024):
        monkeypatch.setattr(attack, "_DRAW_CHUNK", chunk)
        for trials in (chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
            if trials < 2:
                continue
            for m in (2, 10, 16):
                geom = ArrayGeometry(m)
                seed = trials * 100 + m
                args = (geom, 0.4, SWEEP_ANGLES, SWEEP_PRECODERS, noise, trials, seed)
                _assert_matches_oracle(monte_carlo_mse(*args), oracles.monte_carlo_mse(*args))


@pytest.mark.parametrize("figure_id, seed", [("fig3", 0), ("fig7", 5)])
def test_monte_carlo_figures_match_the_oracle_at_paper_defaults(figure_id, seed, monkeypatch):
    """The figure's one call at the paper's 10^4 trials is within the oracle's bounds, and they stay tight there."""
    calls = []

    def record(*args):
        calls.append(monte_carlo_mse(*args))
        return calls[-1]

    monkeypatch.setattr(experiments, "monte_carlo_mse", record)
    config = ExperimentConfig(figure_id, seed=seed)
    experiments.run_figure(config)
    (got,) = calls
    _assert_matches_oracle(got, getattr(oracles, f"{figure_id}_sim")(config))


def test_monte_carlo_equal_trial_values_give_a_finite_stderr():
    """Points whose two trials have the same value: the variance g^T C g rounds near 0, never to a nan root.

    With z_t = [w_t, ||w_t||^2] and g = [2 d, 1], the two values differ by
    g.(z_0 - z_1); each d here makes that 0, and L = M antennas reach any d.
    """
    geom = ArrayGeometry(4)
    m = geom.num_elements
    noise = NoiseModel.from_db(10.0)
    w = np.random.default_rng(3).standard_normal((2, 2 * m)) * math.sqrt(noise.floor / m / 2.0)
    dw, ds = w[0] - w[1], w[0] @ w[0] - w[1] @ w[1]
    free = np.random.default_rng(1).standard_normal((200, 2 * m))
    d = -ds * dw / (2.0 * (dw @ dw)) + free - np.outer(free @ dw, dw) / (dw @ dw)
    angles = np.array([-0.9, -0.3, 0.2, 0.8])
    target = steering_vector(geom, 0.4) - (d[:, 0::2] + 1j * d[:, 1::2])
    precoders = np.linalg.solve(steering_vector(geom, angles).T, target.T).T
    mean, stderr = monte_carlo_mse(geom, 0.4, angles, precoders, noise, 2, 3)
    assert np.all(np.isfinite(stderr)) and np.all(stderr <= 1e-6 * mean)


def test_monte_carlo_memory_does_not_grow_with_trials_times_points():
    """The heap peak of one call stays within a few (P, 2M) residual arrays: nothing scales as chunk x P.

    The complex residuals, their real (P, 2M) form and the one (P, 2M)
    product with the co-moment are three arrays of that size; a fourth
    covers the rest. A (chunk, P) block of trial values would be 8 of them
    at M = 16.
    """
    geom = ArrayGeometry(16)
    points = 20_000
    rng = np.random.default_rng(0)
    angles = rng.uniform(-1.0, 1.0, (points, 2))
    precoders = rng.uniform(-1.0, 1.0, (points, 2)) + 1j * rng.uniform(-1.0, 1.0, (points, 2))
    args = (geom, 0.4, angles, precoders, NoiseModel.from_db(15.0), 600, 0)
    tracemalloc.start()
    try:
        mean, stderr = monte_carlo_mse(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean.shape == stderr.shape == (points,)
    assert peak <= 4 * points * 2 * geom.num_elements * 8


def test_monte_carlo_batch_shares_one_draw_across_sweep_shapes():
    """Any broadcast of theta, angles and precoders gives the per-point oracle over the one shared draw."""
    geom = ArrayGeometry(10)
    noise = NoiseModel.from_db(5.0, 20.0)
    thetas = np.array([0.1, 0.4, -0.2])[:, None]
    cases = [
        (0.4, MISALIGNED.angles, MISALIGNED.precoders),  # one point: scalars out
        (0.4, MISALIGNED.angles, np.asarray(MISALIGNED.precoders) * np.array([[1.0], [2.0]])),  # shared angles
        (thetas, SWEEP_ANGLES[1], SWEEP_PRECODERS[1]),  # S = (3, 3)
        (0.4, SWEEP_ANGLES[:, :, None], SWEEP_PRECODERS[:, :, None]),  # S = (2, 3, 1)
    ]
    for theta, angles, precoders in cases:
        args = (geom, theta, angles, precoders, noise, 300, 9)
        _assert_matches_oracle(monte_carlo_mse(*args), oracles.monte_carlo_mse(*args))
    assert all(isinstance(v, float) for v in monte_carlo_mse(geom, *cases[0], noise, 300, 9))


def test_best_case_zeta_independent_of_num_antennas():
    geom = ArrayGeometry(10)
    noise = NoiseModel.from_db(15.0)
    values = []
    for num in (1, 2, 5, 12):
        att = AttackerConfig((0.4,) * num, (1.0 / num,) * num)
        values.append(mse_closed_form(geom, 0.4, att, noise).zeta)
    assert max(values) - min(values) <= 1e-12
