"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The ergodic-sweep criterion dominates the runtime (several
minutes on two cores); everything else finishes in seconds to a couple of
minutes.
"""

import numpy as np
import pytest

import dabf
from dabf.cli import build_spec
from dabf.config import SystemConfig, dbm_to_mw, noise_from_snr
from dabf.decomposition import analog_from_phases, decompose
from dabf.distortion import bussgang_gain_diag, radiated_power
from dabf.experiments import ExperimentSpec, run_experiment
from dabf.gradients import NO_PENALTY, euclidean_gradient, moment_penalty, moment_targets, penalized_objective
from dabf.solver import optimize_full_digital, sphere_radius_sq, update_quartic_moment, update_sextic_moment
import oracles
from oracles import (
    distortion_covariance,
    fd_wirtinger_grad,
    mc_amplifier_stats,
    penalty_values,
    solve_trace_constrained_quadratic,
)

BETA1 = 1.14 - 0.08j
BETA3 = -0.08 + 0.1j


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_precoder(n_tx, k, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((n_tx, k)) + 1j * rng.standard_normal((n_tx, k))) / np.sqrt(2)


def read_csv(path):
    lines = [l for l in open(path, encoding="utf-8").read().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


def test_criterion_1_amplifier_statistics_match_monte_carlo():
    shapes = [(4, 1), (4, 2), (16, 1), (16, 2)]
    worst_b = worst_ce = worst_p = 0.0
    for i in range(20):
        n_tx, k = shapes[i % 4]
        F = random_precoder(n_tx, k, 1000 + i, scale=1.0 + 0.25 * (i % 3))
        b_mc, ce_mc, p_mc = mc_amplifier_stats(F, BETA1, BETA3, n_draws=1_000_000, seed=77 + i)
        b = bussgang_gain_diag(F, BETA1, BETA3)
        ce = distortion_covariance(F, BETA3)
        p = radiated_power(F, BETA1, BETA3)[0]
        worst_b = max(worst_b, float(np.max(np.abs(b - b_mc) / np.abs(b))))
        worst_ce = max(worst_ce, float(np.max(np.abs(ce - ce_mc)) / np.max(np.abs(ce))))
        worst_p = max(worst_p, abs(p - p_mc) / p)
    ok = worst_b < 0.02 and worst_ce < 0.02 and worst_p < 0.01
    report(
        "criterion 1 (Bussgang statistics vs Monte Carlo, 20 precoders x 1e6 draws)",
        ok,
        f"max rel gain err {worst_b:.2e} (<2e-2), max C_e err {worst_ce:.2e} of peak (<2e-2), "
        f"max rel power err {worst_p:.2e} (<1e-2)",
    )


def _gradient_instance(seed, weight_comm=0.5, beta3=BETA3):
    cfg = SystemConfig(
        n_tx=4,
        n_rf=2,
        n_users=2,
        n_paths=2,
        p_tot=4.0,
        noise_user=0.1,
        noise_sense=0.12,
        weight_comm=weight_comm,
        weight_sense=1.0 - weight_comm,
        beta3=beta3,
        target_gain=0.9 + 0.2j,
    )
    ch = dabf.draw_channels(cfg, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 5000)
    F = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
    m4, m6 = moment_targets(F + 0.1 * rng.standard_normal((4, 2)))
    return cfg, ch, F, m4, m6


def test_criterion_2_gradient_matches_finite_differences():
    worst_full = 0.0
    for seed in range(10):
        cfg, ch, F, m4, m6 = _gradient_instance(seed)
        penalty = moment_penalty(m4, m6, -3.0, -1.5)
        analytic = euclidean_gradient(F, penalty, ch, cfg)
        fd = fd_wirtinger_grad(lambda X: penalized_objective(X, penalty, ch, cfg), F)
        worst_full = max(worst_full, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))

    worst_term = 0.0
    for seed, weight in ((20, 1.0), (21, 0.0), (22, 0.5)):  # comm-only, sensing-only, rate-mix
        cfg, ch, F, m4, m6 = _gradient_instance(seed, weight_comm=weight)
        analytic = euclidean_gradient(F, NO_PENALTY, ch, cfg)
        fd = fd_wirtinger_grad(lambda X: penalized_objective(X, NO_PENALTY, ch, cfg), F)
        worst_term = max(worst_term, np.linalg.norm(analytic - fd) / np.linalg.norm(fd))
    for seed in (23, 24):  # each penalty term alone: the gradient with it minus the one without
        cfg, ch, F, m4, m6 = _gradient_instance(seed)
        rate_grad = euclidean_gradient(F, NO_PENALTY, ch, cfg)
        for term, lams in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
            g = euclidean_gradient(F, moment_penalty(m4, m6, *lams), ch, cfg) - rate_grad
            fd = fd_wirtinger_grad(lambda X: penalty_values(X, m4, m6)[term], F)
            worst_term = max(worst_term, np.linalg.norm(g - fd) / np.linalg.norm(fd))

    ok = worst_full < 1e-5 and worst_term < 1e-5
    report(
        "criterion 2 (analytic gradient vs central differences)",
        ok,
        f"max rel Frobenius err: full {worst_full:.2e}, per-term {worst_term:.2e} (<1e-5)",
    )


def test_criterion_3_closed_form_updates_match_oracles():
    # The KKT oracle checks the closed-form updates over full moment matrices
    # (oracles.update_*); the library keeps the diagonal moments, and its
    # updates must equal the diagonals of the full-matrix ones.
    worst_u = worst_v = worst_tru = worst_trv = worst_diag = 0.0
    for n, k, seed in ((3, 1, 0), (4, 2, 1), (5, 1, 2), (6, 3, 3)):
        F = random_precoder(n, k, 300 + seed)
        F *= np.sqrt(2.0) / np.linalg.norm(F)
        p_tot = radiated_power(F, BETA1, BETA3)[0]
        cfg = SystemConfig(
            n_tx=n, n_rf=k, n_users=k, n_paths=2, p_tot=p_tot, noise_user=0.1, noise_sense=0.1
        )
        cov = F @ F.conj().T
        m6_seed = oracles.moment_matrices(F)[1]
        m6 = 0.55 * (m6_seed + m6_seed.conj().T)
        lam1, lam2 = -2.0, -0.7
        m4, _ = oracles.update_quartic_moment(F, m6, cfg, lam1, lam2)
        m4_diag, _ = update_quartic_moment(F, np.real(np.diag(m6)), cfg, lam1, lam2)
        worst_diag = max(worst_diag, float(np.max(np.abs(m4_diag - np.diag(m4)))))
        c2 = (
            cfg.p_tot
            - abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
            - 6 * abs(cfg.beta3) ** 2 * float(np.real(np.trace(m6)))
        ) / (4 * (cfg.beta1.conjugate() * cfg.beta3).real)
        sq = np.abs(cov) ** 2

        def quartic_obj(x, n=n, sq=sq, m6=m6, cov=cov):
            u = x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)
            return float(lam1 * np.sum(np.abs(u - sq) ** 2) + lam2 * np.sum(np.abs(m6 - u * cov) ** 2))

        oracle_u = solve_trace_constrained_quadratic(quartic_obj, n, c2)
        worst_u = max(worst_u, float(np.max(np.abs(m4 - oracle_u))))
        worst_tru = max(worst_tru, abs(np.real(np.trace(m4)) - c2) / max(abs(c2), 1e-12))

        m4b = oracles.moment_matrices(F)[0] * 1.05
        m6b = oracles.update_sextic_moment(F, m4b, cfg)
        m6_diag = update_sextic_moment(F, np.real(np.diag(m4b)), cfg)
        worst_diag = max(worst_diag, float(np.max(np.abs(m6_diag - np.diag(m6b)))))
        c3 = (
            cfg.p_tot
            - abs(cfg.beta1) ** 2 * np.linalg.norm(F) ** 2
            - 4 * (cfg.beta1.conjugate() * cfg.beta3).real * float(np.real(np.trace(m4b)))
        ) / (6 * abs(cfg.beta3) ** 2)
        target = m4b * cov

        def proj_obj(x, n=n, target=target):
            v = x[: n * n].reshape(n, n) + 1j * x[n * n :].reshape(n, n)
            return -float(np.sum(np.abs(v - target) ** 2))

        oracle_v = solve_trace_constrained_quadratic(proj_obj, n, c3)
        worst_v = max(worst_v, float(np.max(np.abs(m6b - oracle_v))))
        worst_trv = max(worst_trv, abs(np.real(np.trace(m6b)) - c3) / max(abs(c3), 1e-12))

    ok = worst_u < 1e-8 and worst_v < 1e-8 and worst_tru < 1e-8 and worst_trv < 1e-12 and worst_diag <= 1e-12
    report(
        "criterion 3 (closed-form moment updates vs KKT oracles)",
        ok,
        f"entrywise err: quartic {worst_u:.2e}, sextic {worst_v:.2e} (<1e-8); "
        f"trace err: quartic {worst_tru:.2e} (<1e-8), sextic {worst_trv:.2e} (<1e-12); "
        f"library vs diagonal {worst_diag:.2e} (<=1e-12)",
    )


def test_criterion_4_solver_feasibility_and_monotonicity():
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    cfg = SystemConfig(
        n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0
    )
    worst_dip = 0.0
    worst_manifold = 0.0
    worst_power = 0.0
    converged = 0
    for seed in range(50):
        ch = dabf.draw_channels(cfg, np.random.default_rng(9000 + seed))
        state, diag = optimize_full_digital(ch, cfg)
        converged += diag.converged
        if len(diag.trace) > 1:
            worst_dip = max(worst_dip, float(np.max(-np.diff(diag.trace))))
        F = state.full_digital
        c1 = sphere_radius_sq(*moment_targets(F), cfg)
        worst_manifold = max(worst_manifold, abs(float(np.real(np.vdot(F, F))) - c1) / c1)
        power = radiated_power(F, cfg.beta1, cfg.beta3)[0]
        worst_power = max(worst_power, abs(power - p) / p)
    ok = converged == 50 and worst_dip <= 0.0 and worst_manifold < 1e-10 and worst_power < 1e-2
    report(
        "criterion 4 (50 seeded solves: converged, monotone ascent traces, manifold, power)",
        ok,
        f"converged {converged} (==50), "
        f"worst ascent-trace dip {worst_dip:.2e} (<=0), manifold residual {worst_manifold:.2e} "
        f"(<1e-10), power residual {worst_power:.2e} (<1e-2)",
    )


def test_criterion_5_decomposition_quality():
    # Planted factors.
    worst_planted = 0.0
    for seed in range(10):
        F_A0 = analog_from_phases(np.random.default_rng(seed).uniform(-np.pi, np.pi, 16), 16, 4)
        F_D0 = random_precoder(4, 2, 600 + seed)
        F = F_A0 @ F_D0
        _, _, residuals = decompose(F, 4)
        worst_planted = max(worst_planted, residuals[-1] / np.linalg.norm(F))
    # Exact case from random unit-modulus starts.
    worst_exact = 0.0
    for seed in range(10):
        F = random_precoder(6, 2, 700 + seed)
        start = np.random.default_rng(seed).uniform(-np.pi, np.pi, 6)
        _, _, residuals = decompose(F, 6, init_phases=start)
        worst_exact = max(worst_exact, residuals[-1] / np.linalg.norm(F))
    # Monotone residual traces.
    worst_increase = 0.0
    for seed in range(100):
        F = random_precoder(16, 2, 800 + seed, scale=1.0 + (seed % 4))
        _, _, residuals = decompose(F, 4)
        if len(residuals) > 1:
            worst_increase = max(worst_increase, float(np.max(np.diff(residuals))))
    ok = worst_planted < 1e-8 and worst_exact < 1e-12 and worst_increase <= 1e-12
    report(
        "criterion 5 (hybrid factorization)",
        ok,
        f"planted residual {worst_planted:.2e} (<1e-8), exact-case residual {worst_exact:.2e} "
        f"(<1e-12), worst residual increase {worst_increase:.2e} (<=1e-12)",
    )


@pytest.fixture(scope="module")
def desk_scale_system():
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    return SystemConfig(
        n_tx=16, n_rf=4, n_users=2, n_paths=5, p_tot=p, noise_user=n0, noise_sense=n0
    )


def test_criterion_6ab_nonlinearity_sweep_orderings(tmp_path, desk_scale_system):
    spec_main = ExperimentSpec(
        kind="sweep_nonlinearity",
        system=desk_scale_system,
        grid=(0.05, 0.25),
        realizations=100,
        out_dir=str(tmp_path / "main"),
        schemes=("proposed_known", "proposed_unknown", "mrt", "zf"),
        workers=2,
        seed=42,
    )
    _, rows = read_csv(run_experiment(spec_main))
    mean = {(float(r[0]), r[1]): float(r[2]) for r in rows}

    known_hi, unknown_hi = mean[(0.25, "proposed_known")], mean[(0.25, "proposed_unknown")]
    mrt_hi, zf_hi = mean[(0.25, "mrt")], mean[(0.25, "zf")]
    ordering = known_hi >= unknown_hi >= max(mrt_hi, zf_hi)

    gap_hi = known_hi - unknown_hi
    gap_lo = mean[(0.05, "proposed_known")] - mean[(0.05, "proposed_unknown")]
    gap_grows = gap_hi > gap_lo

    ok = ordering and gap_grows
    report(
        "criterion 6a/6b (ergodic nonlinearity sweep, desk scale, 100 realizations)",
        ok,
        f"rho=0.25 means: known {known_hi:.3f} >= unknown {unknown_hi:.3f} >= max(mrt {mrt_hi:.3f}, "
        f"zf {zf_hi:.3f}): {ordering}; gap growth {gap_lo:.3f}->{gap_hi:.3f}: {gap_grows}",
    )


def _rbf_flatness(system: SystemConfig, out_dir: str, realizations: int) -> tuple[float, float]:
    spec = ExperimentSpec(
        kind="sweep_nonlinearity",
        system=system,
        grid=(0.0, 0.05, 0.15, 0.25),
        realizations=realizations,
        out_dir=out_dir,
        schemes=("mrt", "rbf"),
        workers=2,
        seed=42,
    )
    _, rows = read_csv(run_experiment(spec))
    vals = {(float(r[0]), r[1]): float(r[2]) for r in rows}
    mrt_curve = [vals[(g, "mrt")] for g in spec.grid]
    rbf_curve = [vals[(g, "rbf")] for g in spec.grid]
    return max(rbf_curve) - min(rbf_curve), mrt_curve[0] - mrt_curve[-1]


def test_criterion_6c_rbf_flatness_desk_scale(tmp_path, desk_scale_system):
    # Stated at desk scale, where the per-antenna drive level is four times
    # the reference operating point and cubes into the distortion power, so
    # the random precoder's sensing link degrades materially. The bound is
    # not attainable under the pinned model at this array size (see the
    # companion reference-scale check); kept as stated rather than loosened.
    rbf_variation, mrt_degradation = _rbf_flatness(desk_scale_system, str(tmp_path), 100)
    ok = rbf_variation < 0.2 * mrt_degradation
    report(
        "criterion 6c (RBF flatness at desk scale, as stated)",
        ok,
        f"rbf variation {rbf_variation:.3f} vs 20% of mrt degradation "
        f"{0.2 * mrt_degradation:.3f} (ratio {rbf_variation / mrt_degradation:.0%})",
    )


def test_criterion_6c_supplementary_reference_scale(tmp_path):
    # Same flatness check at the reference array size (64 antennas, 16
    # chains), where the qualitative claim the bound encodes does hold.
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    system = SystemConfig(
        n_tx=64, n_rf=16, n_users=2, n_paths=5, p_tot=p, noise_user=n0, noise_sense=n0
    )
    rbf_variation, mrt_degradation = _rbf_flatness(system, str(tmp_path), 60)
    ok = rbf_variation < 0.2 * mrt_degradation
    report(
        "criterion 6c supplement (RBF flatness at reference scale)",
        ok,
        f"rbf variation {rbf_variation:.3f} vs 20% of mrt degradation "
        f"{0.2 * mrt_degradation:.3f} (ratio {rbf_variation / mrt_degradation:.0%})",
    )


def test_criterion_7_convergence_faster_at_low_snr(tmp_path):
    p = dbm_to_mw(13.0)
    n0 = noise_from_snr(p, 20.0)
    system = SystemConfig(
        n_tx=16, n_rf=4, n_users=2, n_paths=3, p_tot=p, noise_user=n0, noise_sense=n0
    )
    spec = ExperimentSpec(
        kind="convergence",
        system=system,
        grid=(0.0, 10.0, 20.0),
        realizations=50,
        out_dir=str(tmp_path),
        schemes=("proposed_known",),
        workers=2,
        seed=7,
    )
    _, rows = read_csv(run_experiment(spec))
    iters_to_99 = {}
    monotone = True
    for snr in (0.0, 10.0, 20.0):
        trace = np.array([float(r[2]) for r in rows if float(r[1]) == snr])
        monotone &= bool(np.all(np.diff(trace) >= -1e-12))
        target = 0.99 * trace[-1]
        iters_to_99[snr] = int(np.argmax(trace >= target))
    ordered = iters_to_99[0.0] < iters_to_99[20.0]
    ok = monotone and ordered
    report(
        "criterion 7 (averaged convergence traces over 50 realizations)",
        ok,
        f"iterations to 99% of plateau: SNR0 {iters_to_99[0.0]}, SNR10 {iters_to_99[10.0]}, "
        f"SNR20 {iters_to_99[20.0]}; low-SNR strictly faster: {ordered}; traces non-decreasing: {monotone}",
    )


def test_criterion_8_beam_pattern_notches(tmp_path):
    spec = build_spec("beam_pattern", {"output": {"dir": str(tmp_path)}}, seed=0, workers=1)
    _, rows = read_csv(run_experiment(spec))
    pattern = {}
    for r in rows:
        pattern.setdefault(r[1], {})[float(r[0])] = (float(r[2]), float(r[3]))
    user, target = 106.0, 60.0

    nl_drop = pattern["mrt"][user][1] - pattern["proposed_known"][user][1]
    lin_drop = pattern["mrt"][user][0] - pattern["proposed_known"][user][0]

    angles = sorted(pattern["proposed_known"])
    nl = np.array([pattern["proposed_known"][a][1] for a in angles])
    window = [i for i, a in enumerate(angles) if target - 2.0 <= a <= target + 2.0]
    has_notch = any(
        0 < i < len(angles) - 1 and nl[i] < nl[i - 1] and nl[i] < nl[i + 1] for i in window
    )

    ok = nl_drop >= 20.0 and lin_drop > 0.0 and has_notch
    report(
        "criterion 8 (beam pattern at the reference operating point)",
        ok,
        f"distortion reduction at the user angle {nl_drop:.1f} dB (>=20), linear power below the "
        f"matched filter by {lin_drop:.1f} dB (>0), local distortion notch within 2 deg of the "
        f"target: {has_notch}",
    )


def test_criterion_9_bitwise_deterministic_reruns(tmp_path, desk_scale_system):
    spec = ExperimentSpec(
        kind="sweep_nonlinearity",
        system=desk_scale_system,
        grid=(0.1,),
        realizations=2,
        out_dir=str(tmp_path),
        schemes=("mrt", "zf", "rbf"),
        workers=1,
        seed=123,
    )
    first = open(run_experiment(spec), "rb").read()
    second = open(run_experiment(spec), "rb").read()
    ok = first == second
    report(
        "criterion 9 (bitwise-identical rerun)",
        ok,
        f"{len(first)} bytes, identical: {ok}",
    )
