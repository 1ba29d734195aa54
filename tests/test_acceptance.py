"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The Monte Carlo criteria (1 and 2) share a single session run of
100 trials per configuration and take a few minutes combined.
"""

import time

import numpy as np
import pytest

from leo.cli import main as cli_main
from leo.experiments import (
    _usable_cpus,
    run_monte_carlo,
    wilcoxon_signed_rank,
)
from leo.learning import LearnableParams, TrainConfig, gradient
from leo.local_lti import (
    check_back_solve_round_trip,
    check_initial_state_gap_bound,
    check_local_fit_replay,
)
from leo.lti_core import (
    NoiseRealization,
    RngStream,
    pinv,
    random_system,
    simulate_true,
    spectral_radius,
)
from leo.observer import (
    default_observer_poles,
    max_spectrum_deviation,
    place_observer_poles,
    run_luenberger,
)

MC_SEED = 0
MC_TRIALS = 100
MC_DIMS = [(2, 1, 1), (3, 2, 1), (4, 3, 2)]

BENCH_DIMS = [
    (2, 1, 1), (2, 2, 1),
    (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2),
    (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (4, 3, 3),
    (4, 4, 1), (4, 4, 2), (4, 4, 3),
]


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


@pytest.fixture(scope="session")
def monte_carlo_summaries():
    workers = min(2, _usable_cpus())
    start = time.time()
    summaries, _ = run_monte_carlo(
        MC_DIMS,
        trials=MC_TRIALS,
        master_seed=MC_SEED,
        train_cfg=TrainConfig(),
        parallel=workers,
    )
    elapsed = time.time() - start
    return {s.dims: s for s in summaries}, elapsed


def test_criterion_1_benchmark_reproduction_2_1_1(monte_carlo_summaries):
    summaries, elapsed = monte_carlo_summaries
    s = summaries[(2, 1, 1)]
    ok = (
        s.sr_closed >= 0.60
        and s.err_closed_pct >= 5.0
        and s.p_closed < 0.05
        and elapsed < 900
    )
    report(
        1, ok,
        f"(2,1,1) x {MC_TRIALS}: SR_closed={s.sr_closed:.2f} (>=0.60), "
        f"ERR_closed={s.err_closed_pct:.2f}% (>=5%), p_closed={s.p_closed:.2e} "
        f"(<0.05), MC elapsed {elapsed:.0f}s (<900s)",
    )


def test_criterion_2_direction_of_effect(monte_carlo_summaries):
    summaries, _ = monte_carlo_summaries
    holds = []
    details = []
    for dims in MC_DIMS:
        s = summaries[dims]
        good = s.err_closed_pct > 0 and s.sr_closed > 0.5 and s.p_closed < 0.05
        holds.append(good)
        details.append(
            f"{dims}: ERR={s.err_closed_pct:.2f}% SR={s.sr_closed:.2f} "
            f"p={s.p_closed:.1e} -> {'ok' if good else 'no'}"
        )
    ok = sum(holds) >= 2
    report(2, ok, f"direction of effect in {sum(holds)}/3 configs; " + "; ".join(details))


def test_criterion_3_pole_placement_accuracy():
    start = time.time()
    worst = 0.0
    count = 0
    per_dims = 200 // len(BENCH_DIMS) + 1
    for i, (n, p, q) in enumerate(BENCH_DIMS):
        poles = np.asarray(default_observer_poles(n), dtype=complex)
        for t in range(per_dims):
            if count >= 200:
                break
            sys = random_system(n, p, q, RngStream(101, (i, t)))
            gain = place_observer_poles(sys.real.A, sys.real.C, poles)
            attained = np.linalg.eigvals(sys.real.A - gain @ sys.real.C)
            worst = max(worst, max_spectrum_deviation(attained, poles))
            count += 1
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 10 and count == 200
    report(
        3, ok,
        f"{count} systems, worst eigenvalue deviation {worst:.2e} (<1e-6), "
        f"{elapsed:.1f}s (<10s)",
    )


def extended_precision_loss(params, L, inputs, measured, cfg, init):
    """``loss(...).total`` of a Luenberger rollout with gain L, as a
    straight-line loop in ``np.longdouble``.

    It is the finite-difference oracle: the central difference divides the
    loss's rounding noise by 2h, and in double precision that noise reaches
    the 1e-8 floor of the tolerance on some BLAS cores. Where
    ``np.longdouble`` is plain double, the oracle is as noisy as ``loss``.
    """
    ld = np.longdouble
    A, B, C, x = (np.asarray(a, dtype=ld) for a in (
        params.A_hat, params.B_hat, params.C_hat, params.x0_hat))
    L, u, y = (np.asarray(a, dtype=ld) for a in (L, inputs, measured))
    k0, K = cfg.window_start, cfg.window_len
    data = ld(0)
    for k in range(k0 + K + 1):
        if k >= k0:
            data += np.abs(y[k] - C @ x).mean()
        x = A @ x + B @ u[k] + L @ (y[k] - C @ x)
    lam_A, lam_B, lam_C = cfg.resolved_lambdas(*params.dims)
    return (
        data / K
        + lam_A * np.abs(A - np.asarray(init.A_hat, dtype=ld)).mean()
        + lam_B * np.abs(B - np.asarray(init.B_hat, dtype=ld)).mean()
        + lam_C * np.abs(C - np.asarray(init.C_hat, dtype=ld)).mean()
    )


def test_criterion_4_gradient_correctness():
    start = time.time()
    fields = ("A_hat", "B_hat", "C_hat", "x0_hat")
    worst_excess = -1.0
    instances = 0
    cfg = TrainConfig()
    while instances < 20:
        dims = BENCH_DIMS[instances % len(BENCH_DIMS)]
        n, p, q = dims
        gen = RngStream(202, (instances,)).generator()
        sys = random_system(n, p, q, gen)
        T = 260
        inputs = gen.normal(0, 1, (T, p))
        noise = NoiseRealization(
            w=gen.normal(0, 0.1, (T, n)), v=gen.normal(0, 0.1, (T + 1, q))
        )
        traj = simulate_true(sys, inputs, noise, T)
        nominal = sys.nominal()
        init = LearnableParams.from_lti(nominal, sys.x0_real + gen.normal(0, 10, n))
        params = LearnableParams(
            A_hat=init.A_hat + gen.normal(0, 0.01, (n, n)),
            B_hat=init.B_hat + gen.normal(0, 0.01, (n, p)),
            C_hat=init.C_hat + gen.normal(0, 0.01, (q, n)),
            x0_hat=init.x0_hat + gen.normal(0, 0.1, n),
        )
        gain = place_observer_poles(nominal.A, nominal.C, default_observer_poles(n))
        grads = gradient(params, gain, inputs, traj.outputs, cfg, init=init)
        h = 1e-6
        for field in fields:
            arr = getattr(params, field)
            g = np.atleast_1d(getattr(grads, field))
            for idx in np.ndindex(arr.shape):
                kw = {f: getattr(params, f).copy() for f in fields}
                kw[field][idx] += h
                up = extended_precision_loss(LearnableParams(**kw), gain, inputs, traj.outputs,
                                             cfg, init)
                kw[field][idx] -= 2 * h
                dn = extended_precision_loss(LearnableParams(**kw), gain, inputs, traj.outputs,
                                             cfg, init)
                fd = float((up - dn) / (2 * h))
                excess = abs(g[idx] - fd) - max(1e-4 * abs(fd), 1e-8)
                worst_excess = max(worst_excess, excess)
        instances += 1
    elapsed = time.time() - start
    ok = worst_excess <= 0 and elapsed < 30
    report(
        4, ok,
        f"20 instances, worst tolerance excess {worst_excess:.2e} (<=0), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_5_local_fit_replay():
    worst, threshold = check_local_fit_replay(cases=100, seed=0)
    ok = worst <= threshold
    report(5, ok, f"100 windows, worst replay residual {worst:.2e} (<= {threshold:.0e})")


def test_criterion_6_back_solve_round_trip():
    worst, threshold = check_back_solve_round_trip(cases=100, seed=0)
    ok = worst <= threshold
    report(6, ok, f"100 round trips, worst scaled residual {worst:.2e} (<= {threshold:.0e})")


def test_criterion_7_initial_state_gap_bound():
    worst, threshold = check_initial_state_gap_bound(cases=100, seed=0)
    ok = worst <= threshold
    report(
        7, ok,
        f"100 output-matched pairs, worst (gap - bound) {worst:.2e} (<= {threshold:.0e})",
    )


def test_criterion_8_penrose_conditions():
    gen = RngStream(303).generator()
    worst = 0.0
    for case in range(500):
        r = int(gen.integers(1, 7))
        c = int(gen.integers(1, 7))
        M = gen.standard_normal((r, c))
        if case % 3 == 1 and min(r, c) > 1:
            M[:, -1] = M[:, 0]
        elif case % 3 == 2:
            rank = int(gen.integers(0, min(r, c)))
            M = np.zeros((r, c))
            for _ in range(rank):
                M += np.outer(gen.standard_normal(r), gen.standard_normal(c))
        P = pinv(M)
        worst = max(
            worst,
            float(np.abs(M @ P @ M - M).max()),
            float(np.abs(P @ M @ P - P).max()),
            float(np.abs((M @ P).T - M @ P).max()),
            float(np.abs((P @ M).T - P @ M).max()),
        )
    ok = worst < 1e-10
    report(8, ok, f"500 matrices up to 6x6, worst Penrose residual {worst:.2e} (<1e-10)")


def test_criterion_9_exact_model_convergence():
    worst = 0.0
    for t in range(50):
        gen = RngStream(404, (t,)).generator()
        n = int(gen.integers(2, 5))
        p = int(gen.integers(1, n + 1))
        q = int(gen.integers(1, n + 1))
        sys = random_system(n, p, q, gen)
        params = sys.real
        gain = place_observer_poles(params.A, params.C, default_observer_poles(n))
        assert spectral_radius(params.A - gain @ params.C) < 1.0
        T = 200
        inputs = gen.normal(0, 1, (T, p))
        traj = simulate_true(sys, inputs, NoiseRealization.zero(T, n, q), T)
        offset = gen.standard_normal(n)
        offset *= 99.0 / np.abs(offset).sum()  # ||e0||_1 just under 100
        roll = run_luenberger(
            params, gain, inputs, traj.outputs, sys.x0_real + offset, T
        )
        final_err = float(np.abs(roll.states[T] - traj.states[T]).sum())
        worst = max(worst, final_err)
    ok = worst < 1e-6
    report(9, ok, f"50 systems, worst ||e_200||_1 = {worst:.2e} (<1e-6) from ||e_0||_1 = 99")


def test_criterion_10_demo_regression(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code_a = cli_main(["demo", "--seed", "0", "--out-dir", str(out_a)])
    text_a = capsys.readouterr().out
    code_b = cli_main(["demo", "--seed", "0", "--out-dir", str(out_b)])
    capsys.readouterr()
    identical = (out_a / "demo_trajectories.csv").read_bytes() == (
        out_b / "demo_trajectories.csv"
    ).read_bytes()
    # parse the printed closed-loop errors
    closed_line = next(l for l in text_a.splitlines() if "closed loop" in l)
    parts = closed_line.split()
    e_nom = float(parts[parts.index("nominal") + 1])
    e_enh = float(parts[parts.index("enhanced") + 1])
    ok = code_a == 0 and code_b == 0 and identical and e_enh < e_nom
    report(
        10, ok,
        f"demo closed-loop enhanced {e_enh:.6f} < nominal {e_nom:.6f}; "
        f"same-seed CSVs byte-identical: {identical}",
    )


def test_criterion_11_wilcoxon_validation():
    p_exact = wilcoxon_signed_rank(np.arange(1.0, 11.0) + 1.0, np.arange(1.0, 11.0))
    exact_ok = abs(p_exact - 1.0 / 1024.0) < 1e-12
    gen = np.random.default_rng(42)
    worst_gap = 0.0
    for n in (10, 11, 12):
        for _ in range(10):
            d = gen.choice([-1.0, 1.0], n) * gen.uniform(0.1, 2.0, n)
            a = np.ones(n) + d
            b = np.ones(n)
            gap = abs(
                wilcoxon_signed_rank(a, b, method="exact")
                - wilcoxon_signed_rank(a, b, method="approx")
            )
            worst_gap = max(worst_gap, gap)
    ok = exact_ok and worst_gap < 0.02
    report(
        11, ok,
        f"all-positive n=10 exact p={p_exact:.10g} (=1/1024 to 1e-12); "
        f"worst exact-vs-approx gap {worst_gap:.4f} (<0.02)",
    )
