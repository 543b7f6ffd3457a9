"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line for its criterion and then
asserts it, so a plain pytest run doubles as a checklist.
"""

import cmath
import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from aoa_pla.arrays import (
    ArrayGeometry,
    AttackerConfig,
    NoiseModel,
    derive_rng,
    steering_vector,
    synthesize_attack,
    synthesize_legitimate,
)
from aoa_pla.attack import monte_carlo_mse, mse_closed_form
from aoa_pla.auth import far_frr_sweep
from aoa_pla.experiments import ExperimentConfig, reproduce, run_figure
from aoa_pla.music import DEFAULT_GRID_STEP, estimate_aoa
from oracles import dirichlet_ratio, gram_matrix, mse_delta_single, mse_gradient_single, optimal_single_precoder


def _binomial_acceptance(n, p, alpha):
    """Count range [lo, hi] holding a Binomial(n, p) draw with probability >= 1 - alpha.

    The lower end takes at most alpha/2 of tail mass; what it leaves unused
    goes to the upper tail, so a lower end of 0 gives a one-sided region.
    """
    pmf = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2.0:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= alpha - below:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def fig3_table():
    return run_figure(ExperimentConfig("fig3", seed=0))


@pytest.fixture(scope="module")
def fig6_table():
    return run_figure(ExperimentConfig("fig6", seed=0))


def test_criterion_1_noise_floor_minimum():
    t0 = time.perf_counter()
    geom = ArrayGeometry(16)
    noise = NoiseModel.from_db(15.0)
    attacker = AttackerConfig((0.4, 0.4), (0.5, 0.5))
    expected = 2.0 * 10.0 ** -1.5
    zeta = mse_closed_form(geom, 0.4, attacker, noise).zeta
    sim, _ = monte_carlo_mse(geom, 0.4, attacker.angles, attacker.precoders, noise, 10000, 0)
    elapsed = time.perf_counter() - t0
    closed_ok = abs(zeta - expected) <= 1e-9
    sim_ok = abs(sim - expected) / expected <= 0.02
    _report(
        1,
        "noise-floor minimum",
        closed_ok and sim_ok and elapsed < 10.0,
        f"zeta={zeta!r} expected={expected!r} sim={sim:.6f} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_theory_sim_equivalence(fig3_table):
    t0 = time.perf_counter()
    theory = fig3_table.rows["zeta_theory"]
    sim = fig3_table.rows["zeta_sim"]
    gap = float(np.max(np.abs(theory - sim) / theory))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "theory-simulation equivalence",
        gap <= 0.02 and elapsed < 120.0,
        f"max relative gap {gap:.4%} over the phi0 sweep",
    )


def test_criterion_3_minimum_location(fig3_table):
    phi = fig3_table.rows["phi0_rad"]
    b0 = fig3_table.rows["beta0"]
    b1 = fig3_table.rows["beta1"]
    theory = fig3_table.rows["zeta_theory"]
    sim = fig3_table.rows["zeta_sim"]
    unit = np.abs(b0 + b1 - 1.0) <= 1e-12
    phis = phi[unit]
    ends = {phis.min(), phis.max()}
    arg_theory = float(phis[int(np.argmin(theory[unit]))])
    arg_sim = float(phis[int(np.argmin(sim[unit]))])
    ok = arg_theory in ends and arg_sim in ends
    _report(
        3,
        "minimum at phi0 boundary",
        ok,
        f"argmin theory at {arg_theory:.4f}, sim at {arg_sim:.4f}, grid ends {sorted(ends)}",
    )


def test_criterion_4_alias_minima(fig6_table):
    t0 = time.perf_counter()
    grid = fig6_table.rows["theta_hat_e_rad"]
    zeta = fig6_table.rows["zeta_theta_0.2"]
    theta = 0.2
    # local minima of the sweep, two lowest first
    interior = (zeta[1:-1] < zeta[:-2]) & (zeta[1:-1] < zeta[2:])
    minima = np.flatnonzero(np.concatenate(([zeta[0] < zeta[1]], interior, [zeta[-1] < zeta[-2]])))
    lowest_two = sorted(minima[np.argsort(zeta[minima])[:2]])
    expect = sorted(
        (int(np.argmin(np.abs(grid - theta))), int(np.argmin(np.abs(grid - (math.pi - theta)))))
    )
    expected_floor = 2.0 * 10.0 ** -3.0
    value_ok = abs(float(np.min(zeta)) - expected_floor) <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(
        4,
        "alias minima",
        list(lowest_two) == expect and value_ok and elapsed < 30.0,
        f"minima at {[float(grid[i]) for i in lowest_two]} "
        f"(expected near {theta} and {math.pi - theta:.4f}), min={float(np.min(zeta))!r}",
    )


def test_criterion_5_l_invariance():
    geom = ArrayGeometry(10)
    noise = NoiseModel.from_db(15.0)
    theta = 0.4
    aligned = []
    misaligned = []
    for num in range(1, 33):
        best = AttackerConfig((theta,) * num, (1.0 / num,) * num)
        off = AttackerConfig((theta + 0.2,) * num, (1.0 / num,) * num)
        aligned.append(mse_closed_form(geom, theta, best, noise).zeta)
        misaligned.append(mse_closed_form(geom, theta, off, noise).zeta)
    spread = max(aligned) - min(aligned)
    strictly_larger = all(m > a for a, m in zip(aligned, misaligned))
    _report(
        5,
        "L-invariance",
        spread <= 1e-12 and strictly_larger,
        f"aligned spread {spread:.3e} over L in 1..32; misaligned strictly larger: {strictly_larger}",
    )


def test_criterion_6_snr_monotonicity():
    geom = ArrayGeometry(16)
    attacker = AttackerConfig((0.4, 0.4), (0.5, 0.5))
    zetas = []
    for snr_eve in (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        noise = NoiseModel.from_db(15.0, snr_eve)
        zetas.append(mse_closed_form(geom, 0.4, attacker, noise).zeta)
    decreasing = all(b < a for a, b in zip(zetas, zetas[1:]))
    _report(
        6,
        "SNR monotonicity",
        decreasing,
        f"zeta from {zetas[0]:.5f} down to {zetas[-1]:.5f} over SNR_Eve 0..30 dB",
    )


def test_criterion_7_derivative_and_hessian_oracles():
    rng = np.random.default_rng(7)
    h = 1e-4
    worst_grad = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 33))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        theta_hat = float(rng.uniform(-1.4, 1.4))
        beta = float(rng.uniform(0.05, 2.0))
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
        for an, fd in ((db, fd_b), (dp, fd_p)):
            worst_grad = max(worst_grad, abs(an - fd) / max(abs(an), 1.0))
    grad_ok = worst_grad <= 1e-6

    # Hessian determinant at the returned optimum, via central differences
    # of the analytic gradient. Pairs whose Dirichlet ratio is near zero
    # are redrawn: there D -> 0 and a relative comparison is ill-posed.
    hh = 1e-3
    worst_det = 0.0
    worst_opt_grad = 0.0
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 33))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-1.4, 1.4))
        theta_hat = float(rng.uniform(-1.4, 1.4))
        alpha = math.sin(theta) - math.sin(theta_hat)
        if abs(dirichlet_ratio(geom, alpha)) < 0.05:
            continue
        checked += 1
        opt = optimal_single_precoder(geom, theta, theta_hat)
        b, p = opt.beta_star, opt.phi_star

        def grad(bb, pp):
            return mse_gradient_single(geom, theta, theta_hat, bb, pp)

        fd_bb = (grad(b + hh, p)[0] - grad(b - hh, p)[0]) / (2 * hh)
        fd_bp = (grad(b, p + hh)[0] - grad(b, p - hh)[0]) / (2 * hh)
        fd_pp = (grad(b, p + hh)[1] - grad(b, p - hh)[1]) / (2 * hh)
        det_fd = fd_bb * fd_pp - fd_bp * fd_bp
        worst_det = max(worst_det, abs(det_fd - opt.hessian_det) / abs(opt.hessian_det))
        worst_opt_grad = max(worst_opt_grad, math.hypot(*grad(b, p)))
    det_ok = worst_det <= 1e-6
    opt_ok = worst_opt_grad <= 1e-9
    _report(
        7,
        "derivative/Hessian oracles",
        grad_ok and det_ok and opt_ok,
        f"worst gradient gap {worst_grad:.2e}, worst det gap {worst_det:.2e}, "
        f"worst optimum gradient norm {worst_opt_grad:.2e}",
    )


def test_criterion_8_dirichlet_and_appendix_oracles():
    rng = np.random.default_rng(8)
    worst_delta = 0.0
    for _ in range(10000):
        m = int(rng.integers(2, 33))
        geom = ArrayGeometry(m)
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        theta_hat = float(rng.uniform(-math.pi / 2, math.pi / 2))
        beta = float(rng.uniform(0.0, 2.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        got = mse_delta_single(geom, theta, theta_hat, beta, phi)
        # brute-force cosine sum over the array elements
        idx = np.arange(m)
        want = float(
            np.sum(
                beta * beta
                + 1.0
                - 2.0
                * beta
                * np.cos(idx * geom.wavenumber_scale * (math.sin(theta) - math.sin(theta_hat)) + phi)
            )
        )
        worst_delta = max(worst_delta, abs(got - want))
    delta_ok = worst_delta <= 1e-9

    worst_inner = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 33))
        geom = ArrayGeometry(m)
        theta, th0, th1 = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
        # the two-antenna coefficients b0, b1, d1, c0 are Gram entries
        coef = gram_matrix(geom, (theta, th0, th1))
        a = steering_vector(geom, theta)
        a0 = steering_vector(geom, th0)
        a1 = steering_vector(geom, th1)
        worst_inner = max(
            worst_inner,
            abs(coef[0, 1] - np.vdot(a, a0)),
            abs(coef[0, 2] - np.vdot(a, a1)),
            abs(coef[1, 2] - np.vdot(a0, a1)),
            abs(coef[1, 0] - np.vdot(a0, a)),
        )
        angles = rng.uniform(-math.pi, math.pi, size=int(rng.integers(1, 5)))
        g = gram_matrix(geom, angles)
        stacked = np.column_stack([steering_vector(geom, ang) for ang in angles])
        worst_inner = max(worst_inner, float(np.max(np.abs(g - stacked.conj().T @ stacked))))
    inner_ok = worst_inner <= 1e-10
    _report(
        8,
        "Dirichlet/appendix oracles",
        delta_ok and inner_ok,
        f"worst Case-2 gap {worst_delta:.2e} (1e4 configs), "
        f"worst inner-product gap {worst_inner:.2e} (1e3 configs)",
    )


def test_criterion_9_music_sanity():
    t0 = time.perf_counter()
    # (a) noiseless estimate exact to grid resolution
    geom16 = ArrayGeometry(16)
    block = synthesize_legitimate(geom16, 0.4, NoiseModel.noiseless(), 8, 0)
    noiseless_err = abs(estimate_aoa(block, geom16)[0] - 0.4)
    a_ok = noiseless_err <= 1e-12

    # (b) M = 16, 15 dB, N = 2000: mean absolute error over 200 trials
    noise = NoiseModel.from_db(15.0)
    errors = []
    for t in range(200):
        block = synthesize_legitimate(geom16, 0.4, noise, 2000, derive_rng(90, t))
        errors.append(abs(estimate_aoa(block, geom16)[0] - 0.4))
    mean_err = float(np.mean(errors))
    b_ok = mean_err <= 0.01

    # (c) M = 2, -10 dB, N = 2000: Alice at 0.4 rad, a single-antenna Eve
    # at 0.2 rad. For M = 2 the MUSIC peak has a closed form: the noise
    # subspace is the one vector orthogonal to the principal eigenvector,
    # whose element phase difference is arg R[1,0], so the peak sits at
    # sin(theta_hat) = -arg(R[1,0]) / kappa. With per-element noise
    # variance s2 = 1/(M snr), R[1,0] = exp(-1j kappa sin(theta)) + eps with
    # Var eps = (2 s2 + s2^2) / N, so to first order each estimate is
    # Gaussian about its true angle with standard deviation
    # sqrt(Var eps / 2) / (kappa cos(theta)). The estimates are therefore
    # separated, not similar: their difference is centred 0.2 rad away from
    # zero, and the close-pair fraction is Phi(-2.25), about 0.012. The
    # bounds below are 99.9% sampling intervals around these predictions.
    geom2 = ArrayGeometry(2)
    low = NoiseModel.from_db(-10.0)
    eve = AttackerConfig.single(0.2)
    trials, snapshots, alpha = 200, 2000, 0.001
    kappa = geom2.wavenumber_scale

    def oracle(block):
        x = block.samples
        return math.asin(-cmath.phase(np.mean(x[1] * np.conj(x[0]))) / kappa)

    estimates = {0.4: [], 0.2: []}
    oracle_gap = 0.0
    for t in range(trials):
        ba = synthesize_legitimate(geom2, 0.4, low, snapshots, derive_rng(91, 0, t))
        be = synthesize_attack(geom2, eve, low, snapshots, derive_rng(91, 1, t))
        for angle, blk in ((0.4, ba), (0.2, be)):
            est = estimate_aoa(blk, geom2)[0]
            oracle_gap = max(oracle_gap, abs(est - oracle(blk)))
            estimates[angle].append(est)
    oracle_ok = oracle_gap <= DEFAULT_GRID_STEP

    def model_sd(angle, snr):
        s2 = 1.0 / (geom2.num_elements * snr)
        return math.sqrt((2.0 * s2 + s2 * s2) / snapshots / 2.0) / (kappa * math.cos(angle))

    predicted_sd = {0.4: model_sd(0.4, low.snr_legit), 0.2: model_sd(0.2, low.snr_attacker)}
    diff_sd = math.hypot(*predicted_sd.values())
    std_normal = NormalDist()
    p_close = std_normal.cdf((0.1 - 0.2) / diff_sd) - std_normal.cdf((-0.1 - 0.2) / diff_sd)
    close = int(np.sum(np.abs(np.subtract(estimates[0.4], estimates[0.2])) < 0.1))
    close_lo, close_hi = _binomial_acceptance(trials, p_close, alpha)
    frac_ok = close_lo <= close <= close_hi

    # sample variance / variance ~ chi2(n - 1) / (n - 1); Wilson-Hilferty
    # quantiles, accurate to ~1e-3 relative at 199 degrees of freedom
    dof = trials - 1
    z = std_normal.inv_cdf(1.0 - alpha / 2.0)
    band = [
        math.sqrt((1.0 - 2.0 / (9 * dof) + zz * math.sqrt(2.0 / (9 * dof))) ** 3)
        for zz in (-z, z)
    ]
    measured_sd = {a: float(np.std(v, ddof=1)) for a, v in estimates.items()}
    sd_ok = all(band[0] <= measured_sd[a] / predicted_sd[a] <= band[1] for a in estimates)
    c_ok = oracle_ok and frac_ok and sd_ok
    elapsed = time.perf_counter() - t0
    spreads = ", ".join(
        f"sd@{a} {measured_sd[a]:.4f} (predicted {predicted_sd[a]:.4f})" for a in estimates
    )
    _report(
        9,
        "MUSIC sanity",
        a_ok and b_ok and c_ok and elapsed < 120.0,
        f"noiseless err {noiseless_err:.1e}; mean abs err {mean_err:.4f} at 15 dB/M=16; "
        f"at -10 dB/M=2: worst gap to the arg R[1,0] oracle {oracle_gap:.1e} "
        f"(<= {DEFAULT_GRID_STEP}), close-pair fraction {close / trials:.3f} "
        f"(predicted {p_close:.3f}, accepted {close_lo}..{close_hi} of {trials}), "
        f"{spreads} (ratio band {band[0]:.3f}..{band[1]:.3f}); elapsed {elapsed:.1f}s",
    )


def test_criterion_10_protocol_restatement():
    geom = ArrayGeometry(16)
    noise = NoiseModel.from_db(15.0)
    theta = 0.4
    trials = 200
    threshold = 0.05

    # non-aliased attacker with a 0.1 rad angle gap
    naive = AttackerConfig.single(theta - 0.1)
    [(_, far_naive, frr)] = far_frr_sweep(geom, theta, naive, noise, [threshold], trials, seed=10)
    naive_ok = far_naive <= 0.01

    # attacker satisfying the noise-floor optimum conditions
    optimal = AttackerConfig((theta, math.pi - theta), (0.5, 0.5))
    [(_, far_opt, frr_opt)] = far_frr_sweep(
        geom, theta, optimal, noise, [threshold], trials, seed=11
    )
    acc_legit = 1.0 - frr_opt
    # two-proportion z-test at 95% confidence
    if far_opt == acc_legit:
        z = 0.0
    else:
        pooled = (far_opt + acc_legit) / 2.0
        z = abs(far_opt - acc_legit) / math.sqrt(pooled * (1.0 - pooled) * (2.0 / trials))
    indistinguishable = z <= 1.96
    _report(
        10,
        "protocol restatement",
        naive_ok and indistinguishable,
        f"naive FAR {far_naive:.3f} (<= 0.01); optimal FAR {far_opt:.3f} vs legit acceptance "
        f"{acc_legit:.3f}, z = {z:.2f}",
    )


def test_criterion_11_reproducibility(tmp_path):
    pairs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(
            "fig3",
            seed=0,
            overrides=dict(phi_points=9, trials=2000),
            output_dir=str(tmp_path / sub),
        )
        _, _, csv_path, _ = reproduce(cfg)
        pairs.append(csv_path.read_bytes())
    identical = pairs[0] == pairs[1]
    _report(
        11,
        "reproducibility",
        identical,
        f"repeated fig3 reproduce runs byte-identical: {identical} ({len(pairs[0])} bytes)",
    )
