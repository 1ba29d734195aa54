import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from leo import local_lti
from leo.cli import main
from leo.exceptions import RankDeficientError, ShapeError, SingularMatrixError
from leo.lti_core import (
    LtiParams,
    RngStream,
    _pinv,
    observability_matrix,
    one_norm,
    pinv,
    random_system,
)
from leo.local_lti import (
    TrajectoryWindow,
    back_solve_initial_state,
    check_back_solve_round_trip,
    check_initial_state_gap_bound,
    check_local_fit_replay,
    check_make_invertible,
    fit_local_lti,
    initial_state_gap_bound,
    make_invertible,
    run_theory_checks,
    stack_inputs,
)


def window_from_lti(params, x0, inputs, start, width):
    """Cut a window out of a plain constant-coefficient simulation."""
    x = np.asarray(x0, dtype=float)
    states, outputs = [x], []
    for u in inputs:
        outputs.append(params.C @ x)
        x = params.A @ x + params.B @ u
        states.append(x)
    X = np.column_stack(states[start : start + width])
    X_next = np.column_stack(states[start + 1 : start + width + 1])
    U = np.column_stack(inputs[start : start + width])
    Y = np.column_stack(outputs[start : start + width])
    return TrajectoryWindow(X=X, X_next=X_next, U=U, Y=Y, start=start)


def replay(fitted, w):
    """Max deviation of the fitted model's replay from the window."""
    x = w.X[:, 0].copy()
    worst = 0.0
    for j in range(w.width):
        worst = max(worst, float(np.abs(x - w.X[:, j]).max()))
        worst = max(worst, float(np.abs(fitted.C @ x - w.Y[:, j]).max()))
        x = fitted.A @ x + fitted.B @ w.U[:, j]
    return worst


class TestFitLocalLti:
    def test_lti_window_is_its_own_match(self):
        gen = RngStream(2).generator()
        sys = random_system(3, 2, 2, gen)
        inputs = gen.normal(0, 1, (10, 2))
        w = window_from_lti(sys.real, sys.x0_real, inputs, start=3, width=3)
        fitted = fit_local_lti(w)
        assert replay(fitted, w) < 1e-8

    def test_time_varying_window(self):
        gen = RngStream(7).generator()
        n, p, q, N = 2, 1, 1, 2
        A = gen.standard_normal((n, n)) * 0.6
        B = gen.standard_normal((n, p))
        C = gen.standard_normal((q, n))
        x = gen.standard_normal(n)
        states, inputs, outputs = [x], [], []
        for _ in range(N):
            Ak = A + 0.05 * gen.standard_normal((n, n))
            Bk = B + 0.05 * gen.standard_normal((n, p))
            Ck = C + 0.05 * gen.standard_normal((q, n))
            u = gen.standard_normal(p)
            inputs.append(u)
            outputs.append(Ck @ states[-1])
            states.append(Ak @ states[-1] + Bk @ u)
        w = TrajectoryWindow(
            X=np.column_stack(states[:N]),
            X_next=np.column_stack(states[1 : N + 1]),
            U=np.column_stack(inputs),
            Y=np.column_stack(outputs),
        )
        assert replay(fit_local_lti(w), w) < 1e-8

    def test_duplicate_state_columns_rejected(self):
        x = np.array([1.0, 2.0])
        w = TrajectoryWindow(
            X=np.column_stack([x, x]),
            X_next=np.ones((2, 2)),
            U=np.ones((1, 2)),
            Y=np.ones((1, 2)),
        )
        with pytest.raises(RankDeficientError):
            fit_local_lti(w)

    def test_replay_property_over_random_windows(self):
        worst, threshold = check_local_fit_replay(cases=100, seed=10)
        assert worst <= threshold


class TestBackSolve:
    def test_zero_horizon_returns_target(self):
        params = LtiParams(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2)[:1])
        out = back_solve_initial_state(params, np.zeros((0, 1)), [4.0, 5.0], 0)
        assert_allclose(out, [4.0, 5.0])

    def test_scalar_geometric_inversion(self):
        params = LtiParams(A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.eye(2)[:1])
        out = back_solve_initial_state(params, np.zeros((3, 1)), [1.0, 1.0], 3)
        assert_allclose(out, [8.0, 8.0], atol=1e-12)

    def test_round_trip_random_system(self):
        gen = RngStream(13).generator()
        A = gen.standard_normal((3, 3))
        A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
        params = LtiParams(A=A, B=gen.standard_normal((3, 2)), C=np.eye(3)[:1])
        inputs = gen.normal(0, 1, (10, 2))
        target = gen.normal(0, 1, 3)
        x = back_solve_initial_state(params, inputs, target, 10)
        for k in range(10):
            x = params.A @ x + params.B @ inputs[k]
        assert np.abs(x - target).sum() < 1e-6

    def test_singular_transition_rejected(self):
        params = LtiParams(
            A=np.array([[1.0, 1.0], [1.0, 1.0]]), B=np.zeros((2, 1)), C=np.eye(2)[:1]
        )
        with pytest.raises(SingularMatrixError):
            back_solve_initial_state(params, np.zeros((2, 1)), [1.0, 1.0], 2)

    def test_round_trip_property(self):
        worst, threshold = check_back_solve_round_trip(cases=100, seed=3)
        assert worst <= threshold


class TestMakeInvertible:
    def test_invertible_passthrough(self):
        A = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert make_invertible(A, 0.1) is A

    def test_zero_matrix(self):
        out = make_invertible(np.zeros((2, 2)), 0.1)
        assert np.linalg.svd(out, compute_uv=False)[-1] > 1e-10
        assert one_norm(out) < 0.1

    def test_rank_one_matrix(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = make_invertible(A, 1e-3)
        assert np.linalg.svd(out, compute_uv=False)[-1] > 1e-10
        assert one_norm(out - A) < 1e-3

    def test_too_small_delta_raises(self):
        # every nudge below the singularity tolerance leaves the matrix singular
        with pytest.raises(SingularMatrixError):
            make_invertible(np.zeros((2, 2)), 1e-13)

    def test_property_over_singular_inputs(self):
        worst, threshold = check_make_invertible(cases=10_000, seed=5)
        assert worst <= threshold


def model_operators(params, N):
    """``_stacked_operators`` of one model: its (O, Gamma)."""
    O, Gamma = local_lti._stacked_operators(params.A[None], params.B[None], params.C[None], N)
    return O[0], Gamma[0]


class TestStackedOperators:
    def test_single_step(self):
        params = LtiParams(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 2.0]])
        O, Gamma = model_operators(params, 1)
        assert_allclose(O, [[1.0, 2.0]])
        assert_allclose(Gamma, np.zeros((1, 1)))

    def test_blocks_match_direct_products(self):
        gen = RngStream(19).generator()
        params = LtiParams(
            A=gen.standard_normal((2, 2)),
            B=gen.standard_normal((2, 1)),
            C=gen.standard_normal((1, 2)),
        )
        N = 3
        O, Gamma = model_operators(params, N)
        for i in range(N):
            assert_allclose(
                O[i : i + 1], params.C @ np.linalg.matrix_power(params.A, i), atol=1e-12
            )
            for j in range(N):
                block = Gamma[i : i + 1, j : j + 1]
                if i > j:
                    expected = params.C @ np.linalg.matrix_power(params.A, i - j - 1) @ params.B
                    assert_allclose(block, expected, atol=1e-12)
                else:
                    assert_allclose(block, 0.0)

    def test_stacked_output_identity(self):
        gen = RngStream(21).generator()
        sys = random_system(3, 2, 2, gen)
        params = sys.real
        N = 5
        inputs = gen.normal(0, 1, (N, 2))
        x = sys.x0_real.copy()
        outputs = []
        for k in range(N):
            outputs.append(params.C @ x)
            x = params.A @ x + params.B @ inputs[k]
        stacked_y = np.concatenate(outputs)
        O, Gamma = model_operators(params, N)
        predicted = O @ sys.x0_real + Gamma @ stack_inputs(inputs, N)
        assert_allclose(predicted, stacked_y, atol=1e-10)


class TestInitialStateGapBound:
    def test_identical_systems_give_zero(self):
        gen = RngStream(23).generator()
        sys = random_system(2, 1, 1, gen)
        U = stack_inputs(gen.normal(0, 1, (2, 1)), 2)
        assert initial_state_gap_bound(sys.real, sys.real, [1.0, 2.0], U, 2) == 0.0

    def test_bound_dominates_measured_gap(self):
        worst, threshold = check_initial_state_gap_bound(cases=100, seed=1)
        assert worst <= threshold

    def test_input_term_scales_linearly(self):
        gen = RngStream(29).generator()
        sys = random_system(2, 1, 1, gen)
        p1 = sys.real
        p2 = LtiParams(A=p1.A + 0.01, B=p1.B + 0.01, C=p1.C + 0.01)
        x2 = np.array([0.5, -1.0])
        U = stack_inputs(gen.normal(0, 1, (3, 1)), 3)
        b_zero = initial_state_gap_bound(p1, p2, x2, 0.0 * U, 3)
        b_one = initial_state_gap_bound(p1, p2, x2, U, 3)
        b_two = initial_state_gap_bound(p1, p2, x2, 2.0 * U, 3)
        assert b_two - b_zero == pytest.approx(2.0 * (b_one - b_zero), rel=1e-12)

    def test_rank_deficient_stack_rejected(self):
        p1 = LtiParams(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 0.0]])
        with pytest.raises(RankDeficientError):
            initial_state_gap_bound(p1, p1, [0.0, 0.0], np.zeros(2), 2)


# ---------------------------------------------------------------------------
# Per-case reference: the case-by-case constructions and oracle suites that
# the stacked ones replace, verbatim, except that each suite also returns its
# per-case residuals and the local-fit suite takes its window gate as an
# argument.
# ---------------------------------------------------------------------------

_SINGULAR_TOL = 1e-10
_MAX_NUDGE_ATTEMPTS = 100


def pinv_reference(M, rcond=1e-12):
    M = np.asarray(M, dtype=float)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = s > rcond * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (Vt.T * inv_s) @ U.T


def fit_local_lti_reference(w):
    X, X_next, U, Y = w.X, w.X_next, w.U, w.Y
    n, N = X.shape
    s = np.linalg.svd(X, compute_uv=False)
    if N > n or s.size == 0 or s[0] == 0.0 or s[-1] < 1e-9 * s[0]:
        raise RankDeficientError(
            f"window states must have full column rank (n={n}, N={N})"
        )
    T = np.vstack([X, U])
    AB = X_next @ pinv_reference(T)
    A_bar = AB[:, :n]
    B_bar = AB[:, n:]
    C_bar = Y @ pinv_reference(X)
    return LtiParams(A=A_bar, B=B_bar, C=C_bar)


def back_solve_initial_state_reference(params, inputs, x_target, K):
    n, p, _ = params.dims
    if K < 0:
        raise ValueError("K must be non-negative")
    x = np.asarray(x_target, dtype=float).reshape(n)
    if K == 0:
        return x.copy()
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    if inputs.shape[0] < K:
        raise ShapeError(f"need {K} inputs, got {inputs.shape[0]}")
    s = np.linalg.svd(params.A, compute_uv=False)
    if s[-1] <= _SINGULAR_TOL:
        raise SingularMatrixError(
            "transition matrix is numerically singular; nudge it invertible first"
        )
    for k in range(K - 1, -1, -1):
        x = np.linalg.solve(params.A, x - params.B @ inputs[k])
    return x


def make_invertible_reference(A, delta):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ShapeError("A must be square")
    if delta <= 0:
        raise ValueError("delta must be positive")

    def _invertible(M):
        s = np.linalg.svd(M, compute_uv=False)
        return s[-1] > _SINGULAR_TOL

    if _invertible(A):
        return A
    eps = delta / (2 * n)
    candidate = A + eps * np.eye(n)
    if _invertible(candidate) and one_norm(candidate - A) < delta:
        return candidate
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(271828)))
    for _ in range(_MAX_NUDGE_ATTEMPTS):
        P = gen.standard_normal((n, n))
        P *= (delta / 2) / max(one_norm(P), 1e-300) * 0.99
        candidate = A + P
        if _invertible(candidate) and one_norm(candidate - A) < delta:
            return candidate
    raise SingularMatrixError(
        f"no invertible matrix within 1-norm {delta:g} of A in {_MAX_NUDGE_ATTEMPTS} attempts"
    )


def stacked_operators_reference(params, N):
    _, p, q = params.dims
    O = observability_matrix(params.A, params.C, N)
    OB = [O[k * q : (k + 1) * q] @ params.B for k in range(N - 1)]
    Gamma = np.zeros((N * q, N * p))
    for i in range(1, N):
        for j in range(i):
            Gamma[i * q : (i + 1) * q, j * p : (j + 1) * p] = OB[i - j - 1]
    return O, Gamma


def initial_state_gap_bound_reference(p1, p2, x2_0, U_stack, N):
    O1, Gamma1 = stacked_operators_reference(p1, N)
    O2, Gamma2 = stacked_operators_reference(p2, N)
    s = np.linalg.svd(O1, compute_uv=False)
    if s.size == 0 or s[0] == 0.0 or s[-1] < 1e-9 * s[0] or O1.shape[0] < O1.shape[1]:
        raise RankDeficientError("first system's output stack lacks full column rank")
    U_stack = np.asarray(U_stack, dtype=float).reshape(-1)
    x2_0 = np.asarray(x2_0, dtype=float).reshape(-1)
    return float(
        one_norm(pinv_reference(O1))
        * (
            one_norm(Gamma1 - Gamma2) * one_norm(U_stack)
            + one_norm(O1 - O2) * one_norm(x2_0)
        )
    )


def random_ltv_window_reference(gen, n, N, p, q):
    A0 = gen.standard_normal((n, n)) * 0.5
    B0 = gen.standard_normal((n, p))
    C0 = gen.standard_normal((q, n))
    K = int(gen.integers(0, 4))
    x = gen.standard_normal(n)
    states = [x]
    inputs, outputs = [], []
    for k in range(K + N):
        Ak = A0 + 0.02 * gen.standard_normal((n, n))
        Bk = B0 + 0.02 * gen.standard_normal((n, p))
        Ck = C0 + 0.02 * gen.standard_normal((q, n))
        u = gen.standard_normal(p)
        inputs.append(u)
        outputs.append(Ck @ states[-1])
        states.append(Ak @ states[-1] + Bk @ u)
    X = np.column_stack(states[K : K + N])
    X_next = np.column_stack(states[K + 1 : K + N + 1])
    U = np.column_stack(inputs[K : K + N])
    Y = np.column_stack(outputs[K : K + N])
    return TrajectoryWindow(X=X, X_next=X_next, U=U, Y=Y, start=K)


def check_local_fit_replay_reference(cases, seed, inject_fault=False, gate=1e-6):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    worst, per_case = 0.0, []
    done = 0
    while done < cases:
        n = int(gen.integers(2, 5))
        N = int(gen.integers(2, n + 1))
        p = int(gen.integers(1, n + 1))
        q = int(gen.integers(1, n + 1))
        w = random_ltv_window_reference(gen, n, N, p, q)
        s = np.linalg.svd(w.X, compute_uv=False)
        if s[-1] < gate * s[0]:
            continue
        fitted = fit_local_lti_reference(w)
        C_used = fitted.C if not inject_fault else w.Y @ w.X.T  # fault: transpose instead of pinv
        x = w.X[:, 0].copy()
        case = 0.0
        for j in range(w.width):
            worst = max(worst, float(np.abs(x - w.X[:, j]).max()))
            worst = max(worst, float(np.abs(C_used @ x - w.Y[:, j]).max()))
            case = max(case, float(np.abs(x - w.X[:, j]).max()))
            case = max(case, float(np.abs(C_used @ x - w.Y[:, j]).max()))
            x = fitted.A @ x + fitted.B @ w.U[:, j]
        per_case.append(case)
        done += 1
    return worst, per_case


def check_back_solve_round_trip_reference(cases, seed):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(2,))))
    worst, per_case = 0.0, []
    for _ in range(cases):
        n = int(gen.integers(1, 5))
        p = int(gen.integers(1, n + 1))
        K = int(gen.integers(1, 21))
        d = gen.uniform(0.5, 1.2, n) * gen.choice([-1.0, 1.0], n)
        V = np.eye(n) + 0.2 * gen.standard_normal((n, n))
        if np.linalg.svd(V, compute_uv=False)[-1] < 0.2:
            V = np.eye(n)
        A = V @ np.diag(d) @ np.linalg.solve(V, np.eye(n))
        rho = float(np.abs(d).max())
        params = LtiParams(A=A, B=gen.standard_normal((n, p)), C=np.eye(n)[:1])
        inputs = gen.standard_normal((K, p))
        target = gen.standard_normal(n)
        x = back_solve_initial_state_reference(params, inputs, target, K)
        for k in range(K):
            x = params.A @ x + params.B @ inputs[k]
        scale = max(1.0, rho ** (-K))
        worst = max(worst, float(np.abs(x - target).sum()) / scale)
        per_case.append(float(np.abs(x - target).sum()) / scale)
    return worst, per_case


def check_make_invertible_reference(cases, seed):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(3,))))
    worst, per_case = 0.0, []
    for _ in range(cases):
        n = int(gen.integers(1, 5))
        rank = int(gen.integers(0, n))
        M = np.zeros((n, n))
        for _ in range(rank):
            M += np.outer(gen.standard_normal(n), gen.standard_normal(n))
        delta = float(10.0 ** gen.uniform(-4, 0))
        out = make_invertible_reference(M, delta)
        smin = np.linalg.svd(out, compute_uv=False)[-1]
        case = 0.0
        if smin <= _SINGULAR_TOL:
            worst = max(worst, 1.0)
            case = 1.0
        dist = one_norm(out - M)
        worst = max(worst, max(0.0, dist / delta - 1.0 + 1e-12))
        per_case.append(max(case, max(0.0, dist / delta - 1.0 + 1e-12)))
    return worst, per_case


def check_initial_state_gap_bound_reference(cases, seed):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(4,))))
    worst, per_case = -np.inf, []
    done = 0
    while done < cases:
        n = int(gen.integers(2, 5))
        p = int(gen.integers(1, n + 1))
        q = int(gen.integers(1, n + 1))
        N = n + int(gen.integers(0, 3))
        A = gen.standard_normal((n, n))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
        p1 = LtiParams(A=A, B=gen.standard_normal((n, p)), C=gen.standard_normal((q, n)))
        s = np.linalg.svd(stacked_operators_reference(p1, N)[0], compute_uv=False)
        if s[-1] < 1e-6 * s[0]:
            continue
        T = np.eye(n) + 0.3 * gen.standard_normal((n, n))
        if np.linalg.svd(T, compute_uv=False)[-1] < 0.1:
            continue
        T_inv = np.linalg.solve(T, np.eye(n))
        p2 = LtiParams(A=T @ p1.A @ T_inv, B=T @ p1.B, C=p1.C @ T_inv)
        x1 = gen.standard_normal(n)
        x2 = T @ x1
        U = gen.standard_normal((N, p))
        bound = initial_state_gap_bound_reference(p1, p2, x2, stack_inputs(U, N), N)
        gap = float(np.abs(x1 - x2).sum())
        worst = max(worst, gap - bound)
        per_case.append(gap - bound)
        done += 1
    return worst, per_case


# suite name: (stacked per-case residuals, stacked check, per-case reference)
SUITES = {
    "local_fit_replay": (
        local_lti._local_fit_residuals, check_local_fit_replay, check_local_fit_replay_reference),
    "back_solve_round_trip": (
        local_lti._back_solve_residuals, check_back_solve_round_trip,
        check_back_solve_round_trip_reference),
    "make_invertible": (
        local_lti._make_invertible_residuals, check_make_invertible,
        check_make_invertible_reference),
    "initial_state_gap_bound": (
        local_lti._gap_residuals, check_initial_state_gap_bound,
        check_initial_state_gap_bound_reference),
}


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestStackedSuitesMatchPerCaseReference:
    @pytest.mark.parametrize("cases", [0, 1, 3, 100])
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_every_residual_bitwise(self, suite, cases):
        residuals, check, reference = SUITES[suite]
        for seed in range(10):
            worst, per_case = reference(cases, seed)
            assert len(per_case) == cases
            assert bits(residuals(cases, seed)) == bits(per_case), (suite, seed)
            assert bits(check(cases, seed)[0]) == bits(worst), (suite, seed)

    @pytest.mark.parametrize("cases", [1, 3, 100])
    def test_injected_fault_bitwise(self, monkeypatch, cases):
        monkeypatch.setattr(local_lti, "_fit", transposed_output_fit)
        for seed in range(10):
            worst, per_case = check_local_fit_replay_reference(cases, seed, inject_fault=True)
            got = local_lti._local_fit_residuals(cases, seed)
            assert bits(got) == bits(per_case), seed
            assert bits(check_local_fit_replay(cases, seed)[0]) == bits(worst)

    def test_redrawn_windows_bitwise(self, monkeypatch):
        # A strict gate rejects many windows, so the suite draws in several rounds.
        monkeypatch.setattr(local_lti, "_WINDOW_RANK_RTOL", 0.3)
        for seed in range(5):
            _, per_case = check_local_fit_replay_reference(40, seed, gate=0.3)
            assert bits(local_lti._local_fit_residuals(40, seed)) == bits(per_case), seed


def by_shape(keys):
    """Indices of equal keys: the equally shaped stacks a mixed batch splits into."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


SEEDS = st.integers(0, 2**32 - 1)


class TestPublicFunctionsAreRowsOfTheirCores:
    """Each public construction is a stack of one of its private core, so on
    a batch of mixed shapes, split into equal-shape stacks, every row of a
    stacked call equals the public call on that row, bitwise."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, shapes=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2)),
                                       min_size=1, max_size=10))
    def test_pinv(self, seed, shapes):
        gen = np.random.default_rng(seed)
        items = []
        for m, k, kind in shapes:
            M = gen.standard_normal((m, k))
            M[:, : kind * k // 2] = 0.0  # kind 1 drops columns, kind 2 is the zero matrix
            items.append(M)
        for rows in by_shape(M.shape for M in items):
            stacked = _pinv(np.stack([items[i] for i in rows]))
            for row, i in zip(stacked, rows):
                assert bits(row) == bits(pinv(items[i]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, shapes=st.lists(st.tuples(st.integers(2, 4), st.integers(1, 4),
                                                 st.integers(1, 4), st.integers(1, 4)),
                                       min_size=1, max_size=10))
    def test_fit_local_lti(self, seed, shapes):
        gen = np.random.default_rng(seed)
        windows = []
        for n, N, p, q in shapes:
            N, p = min(N, n), min(p, n)
            windows.append(TrajectoryWindow(
                X=gen.standard_normal((n, N)), X_next=gen.standard_normal((n, N)),
                U=gen.standard_normal((p, N)), Y=gen.standard_normal((q, N)),
            ))
        for rows in by_shape((w.X.shape, w.U.shape, w.Y.shape) for w in windows):
            stacks = [np.stack([getattr(windows[i], f) for i in rows]) for f in ("X", "X_next", "U", "Y")]
            A, B, C = local_lti._fit(*stacks)
            for r, i in enumerate(rows):
                fitted = fit_local_lti(windows[i])
                assert bits(fitted.A) == bits(A[r])
                assert bits(fitted.B) == bits(B[r])
                assert bits(fitted.C) == bits(C[r])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8)),
                                       min_size=1, max_size=10))
    def test_back_solve_initial_state(self, seed, shapes):
        gen = np.random.default_rng(seed)
        cases = []
        for n, p, K in shapes:
            p = min(p, n)
            params = LtiParams(A=2.0 * np.eye(n) + 0.3 * gen.standard_normal((n, n)),
                               B=gen.standard_normal((n, p)), C=np.eye(n)[:1])
            cases.append((params, gen.standard_normal((K, p)), gen.standard_normal(n), K))
        for rows in by_shape(c[0].dims for c in cases):
            rows.sort(key=lambda i: -cases[i][3])  # the core wants K non-increasing
            K = np.array([cases[i][3] for i in rows])
            inputs = np.zeros((len(rows), K[0], cases[rows[0]][0].dims[1]))
            for r, i in enumerate(rows):
                inputs[r, : K[r]] = cases[i][1]
            x = local_lti._back_solve(
                np.stack([cases[i][0].A for i in rows]), np.stack([cases[i][0].B for i in rows]),
                inputs, np.stack([cases[i][2] for i in rows]), K,
            )
            for r, i in enumerate(rows):
                assert bits(back_solve_initial_state(*cases[i])) == bits(x[r])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=SEEDS, shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 3), st.floats(-11, 0)),
                                       min_size=1, max_size=12))
    def test_make_invertible(self, seed, shapes):
        """Rows that need the random nudge share one perturbation per attempt,
        scaled by their own delta; each still gets what its own call gives."""
        gen = np.random.default_rng(seed)
        cases = []
        for n, kind, log_delta in shapes:
            delta = 10.0**log_delta
            if kind == 0:    # invertible: returned as it is
                A = 2.0 * np.eye(n) + 0.1 * gen.standard_normal((n, n))
            elif kind == 1:  # singular: A + delta/(2n) I is the fix, unless delta is tiny
                A = np.zeros((n, n))
                A[0] = gen.standard_normal(n)
            else:            # A + delta/(2n) I is singular too: only the random nudge helps
                A = np.zeros((n, n))
                if n > 1:
                    A[1, 1] = -(delta / (2 * n))
            cases.append((A, delta))
        for rows in by_shape(c[0].shape for c in cases):
            expected = []
            for i in rows:
                try:
                    expected.append(make_invertible(*cases[i]))
                except SingularMatrixError:
                    expected.append(None)
            A = np.stack([cases[i][0] for i in rows])
            delta = np.array([cases[i][1] for i in rows])
            out, nudged, found = local_lti._make_invertible(A, delta)
            for r, i in enumerate(rows):
                # a row its own call fails is found to fail, and is left as it was
                assert found[r] == (expected[r] is not None)
                assert bits(out[r]) == bits(cases[i][0] if expected[r] is None else expected[r])
                assert nudged[r] == (expected[r] is not cases[i][0])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=SEEDS, shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4),
                                                 st.integers(1, 3), st.integers(1, 5)),
                                       min_size=1, max_size=10))
    def test_stacked_operators_and_gap_bound(self, seed, shapes):
        gen = np.random.default_rng(seed)
        cases = []
        for n, p, q, N in shapes:
            p = min(p, n)
            p1 = LtiParams(A=0.5 * gen.standard_normal((n, n)), B=gen.standard_normal((n, p)),
                           C=gen.standard_normal((q, n)))
            p2 = LtiParams(A=p1.A + 0.01 * gen.standard_normal((n, n)), B=p1.B, C=p1.C + 0.01)
            cases.append((p1, p2, gen.standard_normal(n), gen.standard_normal(N * p), N))
        for rows in by_shape((c[0].dims, c[4]) for c in cases):
            N = cases[rows[0]][4]
            ops = [local_lti._stacked_operators(*(np.stack([getattr(cases[i][k], f) for i in rows])
                                                  for f in "ABC"), N) for k in (0, 1)]
            bound = local_lti._gap_bound(*ops[0], *ops[1], np.stack([cases[i][2] for i in rows]),
                                         np.stack([cases[i][3] for i in rows]))
            for r, i in enumerate(rows):
                O, Gamma = model_operators(cases[i][0], N)
                assert bits(O) == bits(ops[0][0][r])
                assert bits(Gamma) == bits(ops[0][1][r])
                try:
                    expected = initial_state_gap_bound(*cases[i])
                except RankDeficientError:
                    continue
                assert bits(expected) == bits(bound[r])


class TestArgumentChecks:
    """Malformed arguments fail up front with a message that names them."""

    def test_gap_bound_wrong_sizes_and_values(self):
        p = LtiParams(A=np.eye(2) * 0.5, B=np.ones((2, 1)), C=[[1.0, 0.0]])
        x, U = np.ones(2), np.ones(2)
        for bad_x, bad_U, name in (
            (x, np.ones(7), "U_stack"),
            (np.ones(3), U, "x2_0"),
            (x, [1.0, np.nan], "U_stack"),
            ([np.inf, 0.0], U, "x2_0"),
        ):
            with pytest.raises(ShapeError, match=name):
                initial_state_gap_bound(p, p, bad_x, bad_U, 2)
        other = LtiParams(A=np.eye(3), B=np.ones((3, 1)), C=np.ones((1, 3)))
        with pytest.raises(ShapeError, match="p2"):
            initial_state_gap_bound(p, other, x, U, 2)
        with pytest.raises(ShapeError, match="N"):
            initial_state_gap_bound(p, p, x, U, 2.0)

    def test_back_solve_wrong_sizes_and_values(self):
        params = LtiParams(A=0.5 * np.eye(2), B=np.ones((2, 1)), C=np.eye(2)[:1])
        with pytest.raises(ShapeError, match="inputs"):
            back_solve_initial_state(params, np.ones((3, 2)), [1.0, 1.0], 3)
        with pytest.raises(ShapeError, match="inputs"):
            back_solve_initial_state(params, [[1.0], [np.nan]], [1.0, 1.0], 2)
        with pytest.raises(ShapeError, match="x_target"):
            back_solve_initial_state(params, np.ones((2, 1)), [1.0, np.nan], 2)
        with pytest.raises(ShapeError, match="x_target"):
            back_solve_initial_state(params, np.ones((2, 1)), [1.0, 1.0, 1.0], 2)
        for K in (2.0, -1, "2"):
            with pytest.raises(ShapeError, match="K"):
                back_solve_initial_state(params, np.ones((2, 1)), [1.0, 1.0], K)
        with pytest.raises(ShapeError, match="need 3 inputs"):
            back_solve_initial_state(params, np.ones((2, 1)), [1.0, 1.0], 3)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -1.0, 0.0, "0.1"])
    def test_make_invertible_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            make_invertible(np.zeros((2, 2)), delta)

    def test_make_invertible_bad_matrix(self):
        with pytest.raises(ShapeError, match="A"):
            make_invertible([[np.nan, 0.0], [0.0, 0.0]], 0.1)
        with pytest.raises(ShapeError, match="square"):
            make_invertible(np.zeros((2, 3)), 0.1)

    def test_window_entries_and_shapes(self):
        good = dict(X=np.eye(2), X_next=np.eye(2), U=np.ones((1, 2)), Y=np.ones((1, 2)))
        for field, value in (
            ("X", [[1.0, np.nan], [0.0, 1.0]]),
            ("X", np.ones(2)),
            ("X_next", np.ones((2, 3))),
            ("U", np.ones((1, 3))),
            ("Y", [[np.inf, 0.0]]),
        ):
            with pytest.raises(ShapeError, match=field):
                TrajectoryWindow(**{**good, field: value})

    def test_gap_bound_horizon(self):
        params = LtiParams(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 2.0]])
        for N in (0, 1.5):
            with pytest.raises(ShapeError, match="N must be an integer >= 1"):
                initial_state_gap_bound(params, params, np.ones(2), np.ones(2), N)

    @pytest.mark.parametrize("cases", [2.5, "3", 0])
    def test_run_theory_checks_cases(self, cases):
        with pytest.raises(ValueError, match="cases"):
            run_theory_checks(cases=cases)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_run_theory_checks_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_theory_checks(1, seed=seed)

    def test_stack_inputs(self):
        with pytest.raises(ShapeError, match="inputs"):
            stack_inputs([[1.0, np.nan]], 1)
        for N in (-1, 0, 2.5):
            with pytest.raises(ShapeError, match="N must be an integer >= 1"):
                stack_inputs(np.ones((3, 2)), N)
        assert stack_inputs(np.arange(6.0).reshape(3, 2), 2).tolist() == [0.0, 1.0, 2.0, 3.0]
        assert stack_inputs(np.arange(3.0), 3).tolist() == [0.0, 1.0, 2.0]


def transposed_output_fit(X, X_next, U, Y):
    """``_fit`` with a fault: C = Y X^T, the transpose instead of the
    pseudoinverse, which breaks the output replay of the local-fit suite."""
    A, B, _ = FIT(X, X_next, U, Y)
    return A, B, Y @ X.swapaxes(1, 2)


FIT = local_lti._fit


def poison_first_row(stage, item):
    """Wrap a stacked stage so that the first row of its result, or of
    result[item] when it returns a tuple, is NaN."""
    def poisoned(*args):
        out = stage(*args)
        parts = list(out) if item is not None else [out]
        parts[item or 0] = parts[item or 0].copy()
        parts[item or 0][0] = np.nan
        return tuple(parts) if item is not None else parts[0]
    return poisoned


def test_case_that_cannot_be_nudged_fails_its_suite(monkeypatch, capsys):
    # With every delta shrunk below the singularity tolerance, no singular
    # case can be nudged; each is left as it was, so its residual is 1.
    make = local_lti._make_invertible
    monkeypatch.setattr(local_lti, "_make_invertible", lambda A, delta: make(A, delta * 1e-12))
    report = run_theory_checks(cases=5, seed=0)
    assert report["make_invertible"]["worst_residual"] == 1.0
    assert [name for name, info in report.items() if not info["passed"]] == ["make_invertible"]
    assert main(["theory-check", "--cases", "5", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "check make_invertible: FAIL  worst residual 1.000e+00" in out
    assert out.count("PASS") == 3


@pytest.mark.parametrize("stage, item, suite", [
    ("_fit", 2, "local_fit_replay"),  # C: only the output deviations turn NaN
    ("_back_solve", None, "back_solve_round_trip"),
    ("_make_invertible", 0, "make_invertible"),
    ("_gap_bound", None, "initial_state_gap_bound"),
])
def test_nan_residual_fails_its_suite(monkeypatch, capsys, stage, item, suite):
    monkeypatch.setattr(local_lti, stage, poison_first_row(getattr(local_lti, stage), item))
    report = run_theory_checks(cases=3, seed=0)
    assert np.isnan(report[suite]["worst_residual"])
    assert report[suite]["passed"] is False
    assert [name for name, info in report.items() if not info["passed"]] == [suite]
    assert main(["theory-check", "--cases", "3", "--seed", "0"]) == 1
    assert f"check {suite}: FAIL  worst residual nan" in capsys.readouterr().out
